"""Constraint ideals and canonical-coordinate reduction.

Two triangular substitution systems are implemented.  The continuity
constraint eliminates every u^1 jet carrying a derivative along the first
direction:

    u1_{i}  ->  -sum_b  ub_{i - (1) + (b)}        (i with i^1 > 0, b in 2..m)

The pressure constraint additionally eliminates every pressure jet with
more than one derivative along the first direction:

    p_{i}   ->  -D_{i - 2(1)} Phi                 (i with i^1 > 1)

where Phi is the reduced pressure source and the derivatives on the right
are the constrained ones, so the replacement is already in canonical
coordinates.  Both systems terminate because a substitution never
reintroduces an eliminated variable: the u-rule produces only u^b jets
with b >= 2, and the p-rule produces pressure jets with i^1 <= 1.

Every operation takes an explicit ReductionContext; the free algebra, the
continuity setting and the joint setting are values of it, not a global
mode.
"""

from __future__ import annotations

import enum
from functools import partial

from .jetalgebra import Expr, JetVariable, expr_sum, p, u
from .multiindex import MultiIndex, unit, zero
from .totalderiv import (
    derive,
    laplacian,
    laplacian_primed,
    second_derivative_sum,
    total_derivative,
    total_derivative_multi,
)


class Setting(enum.Enum):
    FREE = "free"
    CE = "ce"
    CPE = "cpe"


class ReductionContext:
    """Immutable bundle of (setting, dimension) with the cached reduced Phi."""

    __slots__ = ("setting", "m", "phi_reduced")

    def __init__(self, setting: Setting, m: int):
        if m < 2:
            raise ValueError(f"dimension must be >= 2, got {m}")
        self.setting = setting
        self.m = m
        self.phi_reduced = phi_expr(m) if setting is Setting.CPE else None

    @staticmethod
    def free(m: int = 3) -> ReductionContext:
        return ReductionContext(Setting.FREE, m)

    @staticmethod
    def ce(m: int = 3) -> ReductionContext:
        return ReductionContext(Setting.CE, m)

    @staticmethod
    def cpe(m: int = 3) -> ReductionContext:
        return ReductionContext(Setting.CPE, m)

    def __repr__(self) -> str:
        return f"ReductionContext({self.setting.value}, m={self.m})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReductionContext):
            return NotImplemented
        return (self.setting, self.m) == (other.setting, other.m)

    def __hash__(self):
        return hash((self.setting, self.m))


# -- constraint generators ----------------------------------------------


def quad_source(m: int) -> Expr:
    """The quadratic velocity source: sum over all la, mu of u^la_(mu) u^mu_(la)."""
    return expr_sum(
        u(la, unit(mu, m)) * u(mu, unit(la, m))
        for la in range(1, m + 1)
        for mu in range(1, m + 1)
    )


def continuity_generator(m: int, i: MultiIndex | None = None) -> Expr:
    """The prolonged divergence constraint: sum over mu of u^mu_{i+(mu)}."""
    i = i if i is not None else zero(m)
    return expr_sum(u(mu, i.bump(mu)) for mu in range(1, m + 1))


def pressure_generator(m: int, i: MultiIndex | None = None) -> Expr:
    """The prolonged pressure constraint: Laplacian of p_i plus D_i of the source."""
    i = i if i is not None else zero(m)
    return laplacian(m, p(i)) + total_derivative_multi(i, quad_source(m))


def phi_expr(m: int) -> Expr:
    """The reduced pressure source: primed Laplacian of p plus the reduced quadratic source."""
    return laplacian_primed(m, p(zero(m))) + reduce_ce(quad_source(m), m)


# -- reduction ------------------------------------------------------------


def _u1_replacement(index: MultiIndex, m: int) -> Expr:
    below = index.subtract(unit(1, m))
    return expr_sum(-u(b, below.bump(b)) for b in range(2, m + 1))


def reduce_ce(f: Expr, m: int) -> Expr:
    """Eliminate every u^1 jet with a derivative along the first direction."""
    offenders = sorted(
        (v for v in f.variables() if v.kind == "u" and v.mu == 1 and v.index.first > 0),
        key=JetVariable.sort_key,
    )
    for v in offenders:
        f = f.subs(v, _u1_replacement(v.index, m))
    return f


def _p_replacement(ctx: ReductionContext, index: MultiIndex) -> Expr:
    target = MultiIndex((index.first - 2,) + index.entries[1:])
    return -restricted_derivative_multi(ctx, target, ctx.phi_reduced)


def reduce_cpe(ctx: ReductionContext, f: Expr) -> Expr:
    """Full reduction: continuity elimination, then pressure elimination."""
    f = reduce_ce(f, ctx.m)
    while True:
        offenders = sorted(
            (v for v in f.variables() if v.kind == "p" and v.index.first > 1),
            key=JetVariable.sort_key,
        )
        if not offenders:
            return f
        for v in offenders:
            f = f.subs(v, _p_replacement(ctx, v.index))


def reduce(ctx: ReductionContext, f: Expr) -> Expr:
    if ctx.setting is Setting.FREE:
        return f
    if ctx.setting is Setting.CE:
        return reduce_ce(f, ctx.m)
    return reduce_cpe(ctx, f)


def ideal_member(ctx: ReductionContext, f: Expr) -> tuple[bool, Expr]:
    """Whether f vanishes on the constraint manifold, with the residual witness."""
    residual = reduce(ctx, f)
    return residual.is_zero(), residual


# -- restricted derivatives ------------------------------------------------


def _restricted_image(ctx: ReductionContext, v: JetVariable, mu: int) -> Expr:
    """Derivative of a canonical coordinate, re-expressed in canonical coordinates."""
    m = ctx.m
    if v.kind == "x":
        return Expr.const(1) if v.mu == mu else Expr.zero()
    if v.kind in ("nu", "t"):
        return Expr.zero()
    if ctx.setting is Setting.FREE:
        if v.kind == "u":
            return u(v.mu, v.index.bump(mu))
        return p(v.index.bump(mu))
    if v.kind == "u":
        if v.mu == 1:
            if v.index.first > 0:
                raise ValueError(f"{v.label()} is not a canonical coordinate here")
            if mu == 1:
                return _u1_replacement(v.index.bump(1), m)
            return u(1, v.index.bump(mu))
        return u(v.mu, v.index.bump(mu))
    # pressure jets
    if ctx.setting is Setting.CE:
        return p(v.index.bump(mu))
    if v.index.first > 1:
        raise ValueError(f"{v.label()} is not a canonical coordinate here")
    bumped = v.index.bump(mu)
    if bumped.first <= 1:
        return p(bumped)
    spatial = MultiIndex((0,) + v.index.entries[1:])
    return -total_derivative_multi(spatial, ctx.phi_reduced)


def restricted_derivative(ctx: ReductionContext, mu: int, f: Expr) -> Expr:
    """The total derivative induced on the constraint manifold.

    Expects f in the canonical coordinates of the context and produces a
    result in those coordinates; on reduced inputs it agrees with
    reducing the free derivative.
    """
    if not 1 <= mu <= ctx.m:
        raise ValueError(f"direction {mu} out of range 1..{ctx.m}")
    if ctx.setting is Setting.FREE:
        return total_derivative(mu, f)
    return derive(f, mu, lambda v, d: _restricted_image(ctx, v, d))


def restricted_derivative_multi(ctx: ReductionContext, i: MultiIndex, f: Expr) -> Expr:
    result = f
    for direction, count in enumerate(i.entries, start=1):
        for _ in range(count):
            result = restricted_derivative(ctx, direction, result)
    return result


def restricted_laplacian(ctx: ReductionContext, f: Expr) -> Expr:
    return second_derivative_sum(partial(restricted_derivative, ctx), f, range(1, ctx.m + 1))


def restricted_laplacian_primed(ctx: ReductionContext, f: Expr) -> Expr:
    return second_derivative_sum(partial(restricted_derivative, ctx), f, range(2, ctx.m + 1))


def velocity_gradient_entry(ctx: ReductionContext, la: int, mu: int) -> Expr:
    """The jet u^la_(mu) expressed in the context's canonical coordinates."""
    m = ctx.m
    idx = unit(mu, m)
    if ctx.setting is not Setting.FREE and la == 1 and mu == 1:
        return _u1_replacement(idx, m)
    return u(la, idx)
