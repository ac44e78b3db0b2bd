"""Built-in presets for the incompressible viscous flow system.

The evolution velocity components are the convective term, the viscous
term and the pressure gradient:

    E^mu = -u^la u^mu_(la) + nu * (Laplacian u^mu) - p_(mu)

The sign on the pressure gradient is fixed by the exact divergence
identity

    D_mu E^mu + PE - (nu*Laplacian - u^la D_la) CE = 0

which holds in the free algebra and makes the flux divergence vanish on
the constrained setting.  The pressure component of the evolution is not
fixed here; it is determined by a Poisson equation whose residual the
verification report exposes.

The system is one value per dimension and viscosity: ns_build returns one
NsInstance per (m, viscosity value), so "1/100" and Fraction(1, 100)
give the same instance and the symbolic nu another.  The table keeps the
most recently used few, so a sweep over viscosities does not grow it.
Building makes only the context and the free evolution velocity.  What
follows from the instance alone -- the reduced evolution field, the free
divergence D_mu E^mu, the three pressure-independent identity residuals
and the informational Poisson source -- is computed on first use and then
kept on the instance, which is frozen; ns_verify hands out a new report
each call.  An instance made by calling NsInstance directly is not
interned and computes its own values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache

from .constraints import (
    ReductionContext,
    Setting,
    continuity_generator,
    pressure_generator,
    quad_source,
    reduce,
    reduce_ce,
)
from .evolutionary import Characteristic, EvolutionField, ResidualReport, _pressure_coupling
from .jetalgebra import Expr, expr_sum, nu, p, u
from .multiindex import Frozen, unit, zero
from .totalderiv import laplacian, total_derivative
from .variational import CurrentTuple, current_divergence


class NsInstance(Frozen):
    """The flow system at a fixed dimension and viscosity; equality is identity.

    The cached properties depend on the instance alone, so each is
    computed on first use and kept.
    """

    def __init__(
        self, m: int, viscosity: Expr, context: ReductionContext, evolution_velocity: tuple[Expr, ...]
    ):
        self._set(m=m, viscosity=viscosity, context=context, evolution_velocity=evolution_velocity)

    @cached_property
    def field(self) -> EvolutionField:
        """The evolution field with a zero pressure component, reduced."""
        velocity = enumerate(self.evolution_velocity, start=1)
        characteristic = Characteristic(self.m, {("u", mu): comp for mu, comp in velocity})
        return EvolutionField(characteristic.reduce(self.context), self.context)

    @cached_property
    def free_divergence(self) -> Expr:
        """D_mu E^mu in the free algebra."""
        return _free_divergence(self)

    @cached_property
    def identity_residuals(self) -> tuple[tuple[str, Expr], ...]:
        """The pressure-independent entries of ns_verify, in report order."""
        ctx = self.context
        return (
            ("velocity_divergence", reduce(ctx, self.free_divergence)),
            ("divergence_identity_free", _divergence_identity(self, self.free_divergence)),
            ("flux_divergence_reduced", current_divergence(ctx, evolution_current(self))),
        )

    @cached_property
    def poisson_source(self) -> Expr:
        """The Poisson residual of a zero pressure component: the reduced source."""
        return _pressure_coupling(self.context, self.field.characteristic)


def ns_build(m: int = 3, viscosity=None) -> NsInstance:
    """The flow system at dimension m, one instance per (m, viscosity value).

    Viscosity stays symbolic unless a positive rational is given, as a
    number or a string like "1/100"; a string in exponent notation is
    refused before it is read, since Fraction builds 10**exponent.  A
    refused m or viscosity stores nothing.
    """
    if isinstance(viscosity, str) and re.search(r"[0-9.][eE]", viscosity):
        raise ValueError(f"viscosity {viscosity} uses exponent notation; give a rational like 1/100")
    try:
        value = None if viscosity is None else Fraction(viscosity)
    except ZeroDivisionError:
        raise ValueError(f"viscosity {viscosity} has a zero denominator") from None
    return _build(m, value)


@lru_cache(maxsize=16)
def _build(m: int, value: Fraction | None) -> NsInstance:
    """The instance at (m, value); lru_cache stores no refused build."""
    context = ReductionContext(Setting.CPE, m)
    if value is not None and value <= 0:
        raise ValueError(f"viscosity must be positive, got {value}")
    visc = nu if value is None else Expr.const(value)
    velocity = tuple(_evolution_component(m, mu, visc) for mu in range(1, m + 1))
    return NsInstance(m, visc, context, velocity)


def _evolution_component(m: int, mu: int, visc: Expr) -> Expr:
    convection = expr_sum(
        u(la, zero(m)) * u(mu, unit(la, m)) for la in range(1, m + 1)
    )
    return -convection + visc * laplacian(m, u(mu, zero(m))) - p(unit(mu, m))


def evolution_current(inst: NsInstance) -> CurrentTuple:
    """The evolution flux as a current; conserved on the constrained setting."""
    flux = enumerate(inst.evolution_velocity, start=1)
    return CurrentTuple(inst.m, {("j", mu): comp for mu, comp in flux})


def evolution_field(inst: NsInstance, pressure_component: Expr | None = None) -> EvolutionField:
    """The evolution field, with the given (or zero) pressure component, reduced.

    The velocity part is the instance's field; only the pressure component is reduced here.
    """
    if pressure_component is None:
        return inst.field
    entries = dict(inst.field.characteristic.items())
    entries[("p",)] = reduce(inst.context, pressure_component)
    return EvolutionField(Characteristic(inst.m, entries), inst.context)


def _free_divergence(inst: NsInstance) -> Expr:
    """D_mu E^mu in the free algebra."""
    return expr_sum(
        total_derivative(mu, comp) for mu, comp in enumerate(inst.evolution_velocity, start=1)
    )


def divergence_identity_residual(inst: NsInstance) -> Expr:
    """The free-algebra combination that must vanish identically: D_mu E^mu + PE
    - (nu*Laplacian - u^la D_la) CE, with the constraint generators at the zero index.

    Computed afresh on each call, so it checks the entry ns_verify keeps.
    """
    return _divergence_identity(inst, _free_divergence(inst))


def _divergence_identity(inst: NsInstance, divergence: Expr) -> Expr:
    """divergence_identity_residual, given divergence = D_mu E^mu."""
    m = inst.m
    ce = continuity_generator(m)
    transported = inst.viscosity * laplacian(m, ce) - expr_sum(
        u(la, zero(m)) * total_derivative(la, ce) for la in range(1, m + 1)
    )
    return divergence + pressure_generator(m) - transported


def ns_verify(inst: NsInstance, pressure_component: Expr | None = None) -> ResidualReport:
    """Run the named identity checks.

    Reports the reduced flux divergence, the free divergence identity,
    and the Poisson residual of the pressure component.  When no
    pressure component is supplied the Poisson entry carries the reduced
    source term as information instead of a pass/fail check.  The
    velocity and flux divergences are the same quantity computed along
    two code paths: here, and through current_divergence.  The first
    three entries and the source are the instance's; only a given
    pressure component's entry is computed here.  Each call returns a
    new report.
    """
    if pressure_component is None:
        entries = [*inst.identity_residuals, ("pressure_poisson", inst.poisson_source)]
        return ResidualReport(entries, frozenset({"pressure_poisson"}))
    field = evolution_field(inst, pressure_component)
    poisson = _pressure_coupling(inst.context, field.characteristic)
    return ResidualReport([*inst.identity_residuals, ("pressure_poisson", poisson)])


def ns_integrability_prolongations(inst: NsInstance) -> list[tuple[str, Expr, Expr]]:
    """The prolongation expressions forcing the joint constraint setting.

    Returns (name, free form, reduced form) triples: the time derivative
    of the divergence constraint rewritten through the evolution
    components, the first spatial prolongations of the divergence
    constraint, and the pressure constraint generator.
    """
    m = inst.m
    ctx = inst.context
    reduced_div = dict(inst.identity_residuals)["velocity_divergence"]
    out = [("time_prolongation", inst.free_divergence, reduced_div)]
    ce = continuity_generator(m)
    for mu in range(1, m + 1):
        prolonged = total_derivative(mu, ce)
        out.append((f"space_prolongation[{mu}]", prolonged, reduce(ctx, prolonged)))
    pe = pressure_generator(m)
    out.append(("pressure_constraint", pe, reduce(ctx, pe)))
    return out


def preset_table(inst: NsInstance) -> list[tuple[str, Expr]]:
    """Named presets in canonical reduced and free forms, for display."""
    m = inst.m
    ctx = inst.context
    rows = [(f"E{mu}", inst.evolution_velocity[mu - 1]) for mu in range(1, m + 1)]
    rows.append(("CE", continuity_generator(m)))
    rows.append(("PE", pressure_generator(m)))
    rows.append(("Phi", ctx.phi_reduced))
    rows.append(("quad_source", quad_source(m)))
    rows.append(("quad_source_reduced", reduce_ce(quad_source(m), m)))
    return rows
