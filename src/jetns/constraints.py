"""Constraint ideals and canonical-coordinate reduction.

Reduction is one ring homomorphism: every jet is either a canonical
coordinate of the setting, which it keeps, or has a canonical image.  The
continuity constraint gives every u^1 jet carrying a derivative along the
first direction the image

    u1_{i}  ->  -sum_b  ub_{i - (1) + (b)}        (i with i^1 > 0, b in 2..m)

and the joint setting adds, for every pressure jet with more than one
derivative along the first direction,

    p_{i}   ->  -D_{i - 2(1)} Phi                 (i with i^1 > 1)

where Phi is the reduced pressure source and the derivatives on the right
are the restricted ones.  Each ReductionContext keeps these images in a
table filled on first use; reduce, the restricted derivative and the
velocity gradient all read it.  One substitution pass reduces completely
because every image is already canonical: the u-rule produces only u^b
jets with b >= 2, and the p-rule produces restricted derivatives of the
canonical Phi.

Every operation takes an explicit ReductionContext; the free algebra, the
continuity setting and the joint setting are values of it, not a global
mode.
"""

from __future__ import annotations

import enum
from functools import partial

from .jetalgebra import Expr, JetVariable, expr_sum, p, u, uvar
from .multiindex import MultiIndex, unit, zero
from .totalderiv import (
    _free_image,
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
    """Immutable bundle of (setting, dimension) with the cached reduced Phi.

    It also memoizes the canonical image of each non-canonical variable it
    has been asked about; the table is a cache and takes no part in
    equality.
    """

    __slots__ = ("setting", "m", "phi_reduced", "_images")

    def __init__(self, setting: Setting, m: int):
        if m < 2:
            raise ValueError(f"dimension must be >= 2, got {m}")
        self.setting = setting
        self.m = m
        self._images: dict[JetVariable, Expr] = {}
        self.phi_reduced = phi_expr(m) if setting is Setting.CPE else None

    def image(self, v: JetVariable) -> Expr | None:
        """The canonical image of v, or None when v is a canonical coordinate.

        A u or p jet whose dimension is not the context's raises ValueError.
        """
        if v.index is None:
            return None
        if v.index.dim != self.m:
            raise ValueError(f"dimension mismatch: {v.label()} in a context of dimension {self.m}")
        if v.kind == "u":
            if v.mu != 1 or v.index.first == 0 or self.setting is Setting.FREE:
                return None
        elif v.index.first < 2 or self.setting is not Setting.CPE:
            return None
        if v not in self._images:
            if v.kind == "u":
                below = v.index.subtract(unit(1, self.m))
                img = expr_sum(-u(b, below.bump(b)) for b in range(2, self.m + 1))
            else:
                target = v.index.subtract(unit(1, self.m).bump(1))
                img = -restricted_derivative_multi(self, target, self.phi_reduced)
            self._images[v] = img
        return self._images[v]

    def canonical(self, v: JetVariable) -> Expr:
        """The variable v written in the context's canonical coordinates."""
        img = self.image(v)
        return Expr.var(v) if img is None else img

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


def reduce(ctx: ReductionContext, f: Expr) -> Expr:
    """f in the canonical coordinates of the context: one substitution pass."""
    return f.subs(ctx.image)


def reduce_ce(f: Expr, m: int) -> Expr:
    """Eliminate every u^1 jet with a derivative along the first direction."""
    return reduce(ReductionContext.ce(m), f)


def ideal_member(ctx: ReductionContext, f: Expr) -> tuple[bool, Expr]:
    """Whether f vanishes on the constraint manifold, with the residual witness."""
    residual = reduce(ctx, f)
    return residual.is_zero(), residual


# -- restricted derivatives ------------------------------------------------


def _restricted_image(ctx: ReductionContext, v: JetVariable, mu: int) -> Expr:
    """Derivative of a canonical coordinate, re-expressed in canonical coordinates."""
    if ctx.image(v) is not None:
        raise ValueError(f"{v.label()} is not a canonical coordinate here")
    if v.kind not in ("u", "p"):
        return _free_image(v, mu)
    return ctx.canonical(JetVariable(v.kind, v.mu, v.index.bump(mu)))


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
    return ctx.canonical(uvar(la, unit(mu, ctx.m)))
