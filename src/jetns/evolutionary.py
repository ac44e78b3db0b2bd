"""Evolutionary vector fields and symmetry determining equations.

A characteristic is the generating tuple (m velocity components and one
pressure component) of a vertical derivation: it acts on a jet variable
by the matching multi-index derivative of the matching component.  On the
constrained settings the derivatives are the restricted ones, and a
characteristic generates a symmetry exactly when its determining
residuals vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constraints import (
    ReductionContext,
    Setting,
    reduce,
    restricted_derivative,
    restricted_derivative_multi,
    restricted_laplacian,
    velocity_gradient_entry,
)
from .jetalgebra import Expr, T_VAR, expr_sum
from .multiindex import MultiIndex, unit
from .totalderiv import derive


@dataclass
class Characteristic:
    """Generating tuple of an evolutionary field: (f^1..f^m; f)."""

    velocity: tuple[Expr, ...]
    pressure: Expr

    def __post_init__(self) -> None:
        self.velocity = tuple(self.velocity)

    @property
    def m(self) -> int:
        return len(self.velocity)

    def component(self, slot: int) -> Expr:
        """Slot 1..m selects a velocity component, slot 0 the pressure one."""
        return self.pressure if slot == 0 else self.velocity[slot - 1]

    def reduce(self, ctx: ReductionContext) -> Characteristic:
        return type(self)(
            tuple(reduce(ctx, c) for c in self.velocity), reduce(ctx, self.pressure)
        )

    def __add__(self, other: Characteristic) -> Characteristic:
        return type(self)(
            tuple(a + b for a, b in zip(self.velocity, other.velocity)),
            self.pressure + other.pressure,
        )

    def __sub__(self, other: Characteristic) -> Characteristic:
        return type(self)(
            tuple(a - b for a, b in zip(self.velocity, other.velocity)),
            self.pressure - other.pressure,
        )

    def __mul__(self, scalar) -> Characteristic:
        c = Fraction(scalar)
        return type(self)(tuple(c * a for a in self.velocity), c * self.pressure)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.pressure.is_zero() and all(c.is_zero() for c in self.velocity)


def _field_action(ctx: ReductionContext, f: Characteristic, g: Expr, cache: dict) -> Expr:
    """The derivation sending each u/p jet to the matching derivative of f, applied to g.

    cache maps (slot, multi-index) to that derivative of f.component(slot)
    and may be shared between calls with the same f.
    """

    def image(v, _mu) -> Expr:
        if v.kind not in ("u", "p"):
            return Expr.zero()
        key = (v.mu if v.kind == "u" else 0, v.index)
        if key not in cache:
            cache[key] = restricted_derivative_multi(ctx, v.index, f.component(key[0]))
        return cache[key]

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


@dataclass
class ResidualReport:
    """Named residual expressions; a check passes when all reduce to zero.

    An entry named in informational reports a value without pass/fail weight.
    """

    entries: list[tuple[str, Expr]]
    informational: frozenset[str] = frozenset()

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
    f = f.reduce(ctx)
    return expr_sum(
        restricted_derivative(ctx, mu, f.velocity[mu - 1]) for mu in range(1, ctx.m + 1)
    )


def pressure_coupling_residual(ctx: ReductionContext, f: Characteristic) -> Expr:
    """Laplacian of the pressure component plus twice the gradient coupling."""
    f = f.reduce(ctx)
    m = ctx.m
    coupling = expr_sum(
        velocity_gradient_entry(ctx, la, mu)
        * restricted_derivative(ctx, la, f.velocity[mu - 1])
        for la in range(1, m + 1)
        for mu in range(1, m + 1)
    )
    return restricted_laplacian(ctx, f.pressure) + 2 * coupling


def symmetry_residuals(ctx: ReductionContext, f: Characteristic) -> ResidualReport:
    """The determining-equation residuals for f in the given setting.

    The free setting has none (every characteristic generates a
    symmetry), the continuity setting has the divergence residual, and
    the joint setting adds the pressure coupling residual.
    """
    if f.m != ctx.m:
        raise ValueError(f"characteristic has {f.m} velocity components, context m={ctx.m}")
    if ctx.setting is Setting.FREE:
        return ResidualReport([])
    entries = [("divergence", divergence_residual(ctx, f))]
    if ctx.setting is Setting.CPE:
        entries.append(("pressure_poisson", pressure_coupling_residual(ctx, f)))
    return ResidualReport(entries)


@dataclass
class EvolutionField:
    """A time-evolution derivation generated by a characteristic.

    Admissibility (the two determining equations of the joint setting) is
    reported, not assumed; the pressure component may be left unresolved.
    """

    characteristic: Characteristic
    context: ReductionContext

    def admissibility(self) -> ResidualReport:
        return symmetry_residuals(self.context, self.characteristic)


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
    cache: dict[tuple[int, MultiIndex], Expr] = {}
    e = field.characteristic
    return Characteristic(
        tuple(_field_action(ctx, f, comp, cache) for comp in e.velocity),
        _field_action(ctx, f, e.pressure, cache),
    )


def time_symmetry_residual(field: EvolutionField, f: Characteristic) -> Characteristic:
    """Componentwise evolution derivative of f minus the linearization applied to f.

    Zero exactly when f generates a symmetry preserved by the evolution.
    """
    linear = linearize_evolution(field, f)
    velocity = tuple(
        evolution_derivative(field, comp) - lin
        for comp, lin in zip(f.velocity, linear.velocity)
    )
    pressure = evolution_derivative(field, f.pressure) - linear.pressure
    return Characteristic(velocity, pressure)


def translation_characteristic(ctx: ReductionContext, la: int) -> Characteristic:
    """The shift along direction la: velocity parts u^mu_(la), pressure part p_(la)."""
    from .jetalgebra import p

    idx = unit(la, ctx.m)
    velocity = tuple(
        velocity_gradient_entry(ctx, mu, la) for mu in range(1, ctx.m + 1)
    )
    return Characteristic(velocity, p(idx))


def pressure_shift_characteristic(ctx: ReductionContext) -> Characteristic:
    """The constant pressure shift: zero velocity parts, pressure part 1."""
    return Characteristic(
        tuple(Expr.zero() for _ in range(ctx.m)), Expr.const(1)
    )
