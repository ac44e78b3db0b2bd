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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constraints import (
    ReductionContext,
    Setting,
    continuity_generator,
    pressure_generator,
    quad_source,
    reduce,
    reduce_ce,
)
from .evolutionary import (
    Characteristic,
    EvolutionField,
    ResidualReport,
    pressure_coupling_residual,
)
from .jetalgebra import Expr, expr_sum, nu, p, u
from .multiindex import unit, zero
from .totalderiv import laplacian, total_derivative
from .variational import CurrentTuple, current_divergence


@dataclass
class NsInstance:
    """The flow system at a fixed dimension and viscosity."""

    m: int
    viscosity: Expr
    context: ReductionContext
    evolution_velocity: tuple[Expr, ...]


def ns_build(m: int = 3, viscosity=None) -> NsInstance:
    """Construct the presets; viscosity stays symbolic unless a positive rational is given."""
    context = ReductionContext(Setting.CPE, m)
    if viscosity is None:
        visc = nu
    else:
        value = Fraction(viscosity)
        if value <= 0:
            raise ValueError(f"viscosity must be positive, got {value}")
        visc = Expr.const(value)
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
    """The evolution field, with the given (or zero) pressure component, reduced."""
    pressure = pressure_component if pressure_component is not None else Expr.zero()
    entries = {("u", mu): comp for mu, comp in enumerate(inst.evolution_velocity, start=1)}
    characteristic = Characteristic(inst.m, {**entries, ("p",): pressure}).reduce(inst.context)
    return EvolutionField(characteristic, inst.context)


def _free_divergence(inst: NsInstance) -> Expr:
    """D_mu E^mu in the free algebra."""
    return expr_sum(
        total_derivative(mu, comp) for mu, comp in enumerate(inst.evolution_velocity, start=1)
    )


def divergence_identity_residual(inst: NsInstance) -> Expr:
    """The free-algebra combination that must vanish identically: D_mu E^mu + PE
    - (nu*Laplacian - u^la D_la) CE, with the constraint generators at the zero index."""
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
    two code paths: here, and through current_divergence.
    """
    ctx = inst.context
    field = evolution_field(inst, pressure_component)
    divergence = _free_divergence(inst)
    entries = [
        ("velocity_divergence", reduce(ctx, divergence)),
        ("divergence_identity_free", _divergence_identity(inst, divergence)),
        ("flux_divergence_reduced", current_divergence(ctx, evolution_current(inst))),
        ("pressure_poisson", pressure_coupling_residual(ctx, field.characteristic)),
    ]
    if pressure_component is None:
        return ResidualReport(entries, frozenset({"pressure_poisson"}))
    return ResidualReport(entries)


def ns_integrability_prolongations(inst: NsInstance) -> list[tuple[str, Expr, Expr]]:
    """The prolongation expressions forcing the joint constraint setting.

    Returns (name, free form, reduced form) triples: the time derivative
    of the divergence constraint rewritten through the evolution
    components, the first spatial prolongations of the divergence
    constraint, and the pressure constraint generator.
    """
    m = inst.m
    ctx = inst.context
    out: list[tuple[str, Expr, Expr]] = []
    div = _free_divergence(inst)
    out.append(("time_prolongation", div, reduce(ctx, div)))
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
