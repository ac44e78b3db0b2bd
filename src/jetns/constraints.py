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
are the restricted ones.  Each ReductionContext keeps the image of each
variable asked about, None for a canonical coordinate, in a table that
reduce, the restricted derivative and the velocity gradient all read; a
jet of another dimension raises on every request and is never stored.
One substitution pass reduces completely because every image is already
canonical: the u-rule produces only u^b jets with b >= 2, and the p-rule
produces restricted derivatives of the canonical Phi.

The restricted derivative is the derivation that sends a canonical
coordinate v to its free image, the total derivative of v along mu,
written in canonical coordinates.  A second table of the context holds
that image for each (v, mu) it has been asked for, so kernel assembly,
which derives the same few jets for every unknown, builds each image
once.  The free setting reads the same table: it has no images, so
there the restricted derivative is the total derivative.  This table
holds derivatives only: a jet that is not a canonical coordinate, or
whose dimension is not the context's, raises on every request.

Every operation takes an explicit ReductionContext; the free algebra, the
continuity setting and the joint setting are values of it, not a global
mode.  Like a jet variable, a context is interned for the process: the
first ReductionContext(setting, m) builds Phi and empty tables, and every
later call returns that context, so all callers share Phi and both tables.
"""

from __future__ import annotations

import enum
from functools import partial

from .jetalgebra import Expr, JetVariable, expr_sum, p, u, uvar
from .multiindex import MultiIndex, unit, zero
from .totalderiv import (
    _free_image,
    derivatives,
    derive,
    laplacian,
    laplacian_primed,
    second_derivative_sum,
    total_derivative_multi,
)


class Setting(enum.Enum):
    FREE = "free"
    CE = "ce"
    CPE = "cpe"


class ReductionContext:
    """The one context of a (setting, dimension) value in the process.

    It holds the reduced Phi, the image table (None for a canonical
    coordinate) and the restricted-derivative table, built once and
    shared by every caller; equality is identity.
    """

    __slots__ = ("setting", "m", "phi_reduced", "_images", "_derivatives")

    _interned = {}  # (setting, m) -> the one built context of that value

    def __new__(cls, setting: Setting, m: int):
        ctx = cls._interned.get((setting, m))
        return ctx if ctx is not None else object.__new__(cls)

    def __init__(self, setting: Setting, m: int):
        if self._interned.get((setting, m)) is self:
            return  # a hit: built before, tables untouched
        if m < 2:
            raise ValueError(f"dimension must be >= 2, got {m}")
        self.setting = setting
        self.m = m
        self._images: dict[JetVariable, Expr | None] = {}
        self._derivatives: dict[tuple[JetVariable, int], Expr] = {}
        self.phi_reduced = phi_expr(m) if setting is Setting.CPE else None
        self._interned[setting, m] = self

    def __reduce__(self):
        return (type(self), (self.setting, self.m))

    def image(self, v: JetVariable) -> Expr | None:
        """The canonical image of v, or None when v is a canonical coordinate.

        A u or p jet whose dimension is not the context's raises ValueError
        on every call; every other verdict is stored on first use.
        """
        if v not in self._images:
            self._images[v] = self._first_image(v)
        return self._images[v]

    def _first_image(self, v: JetVariable) -> Expr | None:
        if v.index is None:
            return None
        if v.index.dim != self.m:
            raise ValueError(f"dimension mismatch: {v.label()} in a context of dimension {self.m}")
        if v.kind == "u":
            if v.mu != 1 or v.index.first == 0 or self.setting is Setting.FREE:
                return None
            below = v.index.subtract(unit(1, self.m))
            return expr_sum(-u(b, below.bump(b)) for b in range(2, self.m + 1))
        if v.index.first < 2 or self.setting is not Setting.CPE:
            return None
        target = v.index.subtract(unit(1, self.m).bump(1))
        return -restricted_derivative_multi(self, target, self.phi_reduced)

    def _derivative_image(self, v: JetVariable, mu: int) -> Expr:
        """The restricted derivative of the canonical coordinate v along mu."""
        img = self._derivatives.get((v, mu))
        if img is None:
            img = self._derivatives[(v, mu)] = _restricted_image(self, v, mu)
        return img

    def __repr__(self) -> str:
        return f"ReductionContext({self.setting.value}, m={self.m})"


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
    return reduce(ReductionContext(Setting.CE, m), f)


def ideal_member(ctx: ReductionContext, f: Expr) -> tuple[bool, Expr]:
    """Whether f vanishes on the constraint manifold, with the residual witness."""
    residual = reduce(ctx, f)
    return residual.is_zero(), residual


# -- restricted derivatives ------------------------------------------------


def _restricted_image(ctx: ReductionContext, v: JetVariable, mu: int) -> Expr:
    """Derivative of a canonical coordinate: its free image in canonical coordinates."""
    if ctx.image(v) is not None:
        raise ValueError(f"{v.label()} is not a canonical coordinate here")
    return _free_image(v, mu).subs(ctx.image)


def restricted_derivative(ctx: ReductionContext, mu: int, f: Expr) -> Expr:
    """The total derivative induced on the constraint manifold.

    Expects f in the canonical coordinates of the context and produces a
    result in those coordinates; on reduced inputs it agrees with
    reducing the free derivative.  Every setting, free included, reads the
    context's derivative table; a free context has no images, so there the
    result is the total derivative.
    """
    if not 1 <= mu <= ctx.m:
        raise ValueError(f"direction {mu} out of range 1..{ctx.m}")
    return derive(f, mu, ctx._derivative_image)


def restricted_derivative_multi(ctx: ReductionContext, i: MultiIndex, f: Expr) -> Expr:
    return derivatives(partial(restricted_derivative, ctx), f)(i.path)


def restricted_laplacian(ctx: ReductionContext, f: Expr) -> Expr:
    return second_derivative_sum(partial(restricted_derivative, ctx), f, range(1, ctx.m + 1))


def velocity_gradient_entry(ctx: ReductionContext, la: int, mu: int) -> Expr:
    """The jet u^la_(mu) expressed in the context's canonical coordinates."""
    v = uvar(la, unit(mu, ctx.m))
    img = ctx.image(v)
    return Expr.var(v) if img is None else img
