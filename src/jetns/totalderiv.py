"""Total derivatives on the free jet algebra.

The total derivative along a spatial direction shifts every occurring jet
variable's multi-index by one in that direction and differentiates any
explicit coordinate dependence.  It runs through derive, the one Leibniz
loop, which Expr.diff, the restricted derivatives and the evolutionary
field share.  The image of each (variable, direction) is built once and
kept in a process table, as the context's restricted-derivative table is.
"""

from __future__ import annotations

from .jetalgebra import Expr, JetVariable, derive, expr_sum, pvar, uvar
from .multiindex import MultiIndex


# (v, mu) -> the total derivative of v along mu; variables are interned, so
# the table grows only with them
_FREE_IMAGES: dict[tuple[JetVariable, int], Expr] = {}


def _free_image(v: JetVariable, mu: int) -> Expr:
    """Total derivative of a single variable along direction mu, built once per (v, mu)."""
    img = _FREE_IMAGES.get((v, mu))
    if img is None:
        img = _FREE_IMAGES[v, mu] = _first_free_image(v, mu)
    return img


def _first_free_image(v: JetVariable, mu: int) -> Expr:
    if v.kind == "x":
        return Expr.const(1) if v.mu == mu else Expr.zero()
    if v.kind == "u":
        return Expr.var(uvar(v.mu, v.index.bump(mu)))
    if v.kind == "p":
        return Expr.var(pvar(v.index.bump(mu)))
    return Expr.zero()  # nu and t are constants for spatial derivatives


def total_derivative(mu: int, f: Expr) -> Expr:
    """The free total derivative D_mu."""
    if mu < 1:
        raise ValueError(f"direction must be >= 1, got {mu}")
    return derive(f, mu, _free_image)


def total_derivative_multi(i: MultiIndex, f: Expr) -> Expr:
    """Iterated total derivative D_i; the composition order is immaterial."""
    return iterated_derivative(total_derivative, i, f)


def iterated_derivative(derivative, i: MultiIndex, f: Expr) -> Expr:
    """derivative(mu, .) applied i^mu times for each direction mu, in order."""
    for direction, count in enumerate(i.entries, start=1):
        for _ in range(count):
            f = derivative(direction, f)
    return f


def second_derivative_sum(derivative, f: Expr, directions) -> Expr:
    """Sum of derivative(mu, derivative(mu, f)) over the given directions."""
    return expr_sum(derivative(mu, derivative(mu, f)) for mu in directions)


def laplacian(m: int, f: Expr) -> Expr:
    """Sum of second derivatives over all m directions."""
    return second_derivative_sum(total_derivative, f, range(1, m + 1))


def laplacian_primed(m: int, f: Expr) -> Expr:
    """Sum of second derivatives over the directions 2..m only."""
    return second_derivative_sum(total_derivative, f, range(2, m + 1))
