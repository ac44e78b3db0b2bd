"""Evolutionary vector fields and symmetry determining equations.

A characteristic is the generating tuple (m velocity components and one
pressure component) of a vertical derivation: it acts on a jet variable
by the matching multi-index derivative of the matching component, read
from one table of iterated derivatives per component, so jets whose paths
share a tail share its derivatives.  On the constrained settings the
derivatives are the restricted ones, and a characteristic generates a
symmetry exactly when its determining residuals vanish.
"""

from __future__ import annotations

from functools import partial

from .constraints import (
    ReductionContext,
    Setting,
    restricted_derivative,
    restricted_laplacian,
    velocity_gradient_entry,
)
from .jetalgebra import Expr, T_VAR, expr_sum, p
from .multiindex import Frozen, unit
from .totalderiv import derivatives, derive
from .tuples import Characteristic


def _field_action(ctx: ReductionContext, f: Characteristic, g: Expr, tables: dict) -> Expr:
    """The derivation sending each u/p jet to the matching derivative of f, applied to g.

    tables (slot -> its table) may be shared between calls with the same f.
    """

    def image(v, _mu) -> Expr:
        if v.kind not in ("u", "p"):
            return Expr.zero()
        d = tables.get(v.mu)
        if d is None:
            d = tables[v.mu] = derivatives(partial(restricted_derivative, ctx), f.component(v.mu))
        return d(v.index.path)

    return derive(g, 0, image)


def ev_apply(ctx: ReductionContext, f: Characteristic, g: Expr) -> Expr:
    """Apply the evolutionary field of f to g.

    The sum runs over the jet variables actually occurring in g; each
    u-variable contributes the matching derivative of a velocity
    component, each p-variable of the pressure component.
    """
    return _field_action(ctx, f, g, {})


def commutator_with_total(
    ctx: ReductionContext, mu: int, f: Characteristic, g: Expr
) -> Expr:
    """D_mu(ev_f g) - ev_f(D_mu g), with the context's derivatives."""
    return restricted_derivative(ctx, mu, ev_apply(ctx, f, g)) - ev_apply(
        ctx, f, restricted_derivative(ctx, mu, g)
    )


class ResidualReport:
    """Named residual expressions; a check passes when all reduce to zero.

    An entry named in informational reports a value without pass/fail weight.
    """

    def __init__(self, entries: list[tuple[str, Expr]], informational: frozenset[str] = frozenset()):
        self.entries = entries
        self.informational = informational

    @property
    def passed(self) -> bool:
        return all(
            expr.is_zero() for name, expr in self.entries if name not in self.informational
        )

    def residual(self, name: str) -> Expr:
        for key, expr in self.entries:
            if key == name:
                return expr
        raise KeyError(name)


def divergence_residual(ctx: ReductionContext, f: Characteristic) -> Expr:
    """The reduced divergence of the velocity components."""
    return _divergence(ctx, f.reduce(ctx))


def _divergence(ctx: ReductionContext, f: Characteristic) -> Expr:
    """divergence_residual of an f already in canonical coordinates."""
    return expr_sum(
        restricted_derivative(ctx, mu, f.component(mu)) for mu in range(1, ctx.m + 1)
    )


def pressure_coupling_residual(ctx: ReductionContext, f: Characteristic) -> Expr:
    """Laplacian of the pressure component plus twice the gradient coupling."""
    return _pressure_coupling(ctx, f.reduce(ctx))


def _pressure_coupling(ctx: ReductionContext, f: Characteristic) -> Expr:
    """pressure_coupling_residual of an f already in canonical coordinates."""
    m = ctx.m
    coupling = expr_sum(
        velocity_gradient_entry(ctx, la, mu)
        * restricted_derivative(ctx, la, f.component(mu))
        for la in range(1, m + 1)
        for mu in range(1, m + 1)
    )
    return restricted_laplacian(ctx, f.pressure) + 2 * coupling


def symmetry_residuals(ctx: ReductionContext, f: Characteristic) -> ResidualReport:
    """The determining-equation residuals for f in the given setting.

    The free setting has none (every characteristic generates a
    symmetry), the continuity setting has the divergence residual, and
    the joint setting adds the pressure coupling residual.  f may be in
    any coordinates: it is reduced in ctx first, as time_symmetry_residual
    reduces it in its field's context.
    """
    if f.m != ctx.m:
        raise ValueError(f"characteristic has {f.m} velocity components, context m={ctx.m}")
    if ctx.setting is Setting.FREE:
        return ResidualReport([])
    f = f.reduce(ctx)
    entries = [("divergence", _divergence(ctx, f))]
    if ctx.setting is Setting.CPE:
        entries.append(("pressure_poisson", _pressure_coupling(ctx, f)))
    return ResidualReport(entries)


class EvolutionField(Frozen):
    """A time-evolution derivation generated by a characteristic; equality is identity.

    Admissibility is not assumed: symmetry_residuals(field.context,
    field.characteristic) reports the two determining equations of the
    joint setting.  The pressure component may be left unresolved.
    """

    def __init__(self, characteristic: Characteristic, context: ReductionContext):
        self._set(characteristic=characteristic, context=context)


def evolution_derivative(field: EvolutionField, g: Expr) -> Expr:
    """The time derivative along the evolution: explicit t-rate plus the field action."""
    return g.diff(T_VAR) + ev_apply(field.context, field.characteristic, g)


def linearize_evolution(field: EvolutionField, f: Characteristic) -> Characteristic:
    """The linearization of the evolution characteristic applied to f.

    Componentwise, each jet variable occurring in an evolution component
    contributes its formal partial derivative times the matching
    multi-index derivative of f.
    """
    ctx = field.context
    tables: dict = {}
    e = field.characteristic
    action = {label: _field_action(ctx, f, comp, tables) for label, comp in e.items()}
    return Characteristic(e.m, action)


def time_symmetry_residual(field: EvolutionField, f: Characteristic) -> Characteristic:
    """Componentwise evolution derivative of f minus the linearization applied to f.

    Zero exactly when f generates a symmetry preserved by the evolution.  f
    may be in any coordinates: like symmetry_residuals, this reduces it in
    the field's context first, which costs a reduced f one substitution
    that replaces nothing.
    """
    f = f.reduce(field.context)
    rate = {label: evolution_derivative(field, comp) for label, comp in f.items()}
    return Characteristic(f.m, rate) - linearize_evolution(field, f)


def translation_characteristic(ctx: ReductionContext, la: int) -> Characteristic:
    """The shift along direction la: velocity parts u^mu_(la), pressure part p_(la)."""
    velocity = {("u", mu): velocity_gradient_entry(ctx, mu, la) for mu in range(1, ctx.m + 1)}
    return Characteristic(ctx.m, {**velocity, ("p",): p(unit(la, ctx.m))})


def pressure_shift_characteristic(ctx: ReductionContext) -> Characteristic:
    """The constant pressure shift: zero velocity parts, pressure part 1."""
    return Characteristic(ctx.m, {("p",): Expr.const(1)})
