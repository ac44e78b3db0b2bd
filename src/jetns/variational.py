"""The formal calculus of variations on the jet algebra.

The variational derivative of a density is the alternating-sign sum of
total derivatives of its formal partials.  A cotuple (one expression per
velocity slot plus one for the pressure slot) has a linearization and a
formal adjoint, both represented as finite coefficient families of
total-derivative operators; the cotuple is a variational derivative
exactly when the two families coincide.  The adjoint reads each D_l of a
coefficient from one table of iterated derivatives.

Slot convention: integers 1..m address the velocity slots, 0 addresses
the pressure slot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .constraints import ReductionContext, reduce
from .jetalgebra import Expr, expr_sum
from .multiindex import MultiIndex, sub_indices
from .totalderiv import derivatives, total_derivative, total_derivative_multi
from .tuples import Cotuple, CurrentTuple

PRESSURE_SLOT = 0


class OperatorCoefficients:
    """A matrix of total-derivative operators with finite support.

    Keys are (target slot, source slot, multi-index); the value is the
    coefficient multiplying the multi-index derivative of the source
    component in the target row.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int, MultiIndex], Expr] | None = None):
        data = {}
        if coeffs:
            for key, expr in coeffs.items():
                if not expr.is_zero():
                    data[key] = expr
        self._coeffs = data

    def items(self) -> list[tuple[tuple[int, int, MultiIndex], Expr]]:
        return sorted(
            self._coeffs.items(),
            key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].sort_key()),
        )

    def coefficient(self, target: int, source: int, k: MultiIndex) -> Expr:
        return self._coeffs.get((target, source, k), Expr.zero())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __sub__(self, other: OperatorCoefficients) -> OperatorCoefficients:
        data = dict(self._coeffs)
        for key, expr in other._coeffs.items():
            data[key] = data.get(key, Expr.zero()) - expr
        return OperatorCoefficients(data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorCoefficients):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        rows = ", ".join(
            f"({t},{s},{k}): {expr}" for (t, s, k), expr in self.items()
        )
        return f"OperatorCoefficients({{{rows}}})"


def euler_collect(
    L: Expr, directions: Iterable[int]
) -> dict[tuple[str, int, tuple[int, ...]], Expr]:
    """Alternating-sign integration by parts along the given directions.

    For each jet variable occurring in L, the part of its multi-index
    supported on `directions` is integrated by parts and the remainder is
    kept as a label.  Returns a map from (kind, component, remainder
    entries) to the accumulated expression.  With all directions included
    this is the classical variational derivative; with the first
    direction excluded it is the variational derivative of the auxiliary
    complex.
    """
    directions = set(directions)
    acc: dict[tuple[str, int, tuple[int, ...]], Expr] = {}
    for v in L.variables():
        if v.kind not in ("u", "p"):
            continue
        integrated = tuple(
            e if (pos + 1) in directions else 0 for pos, e in enumerate(v.index.entries)
        )
        remainder = tuple(
            0 if (pos + 1) in directions else e for pos, e in enumerate(v.index.entries)
        )
        j = MultiIndex(integrated)
        sign = Fraction(-1) ** j.total
        term = sign * total_derivative_multi(j, L.diff(v))
        label = (v.kind, v.mu, remainder)
        acc[label] = acc.get(label, Expr.zero()) + term
    return {label: expr for label, expr in acc.items() if not expr.is_zero()}


def euler_operator(L: Expr, m: int) -> Cotuple:
    """The variational derivative of a density, one entry per slot."""
    collected = euler_collect(L, range(1, m + 1))
    zeros = (0,) * m
    entries = {("u", mu): collected.get(("u", mu, zeros), Expr.zero()) for mu in range(1, m + 1)}
    return Cotuple(m, {**entries, ("p",): collected.get(("p", 0, zeros), Expr.zero())})


def frechet_linearization(chi: Cotuple) -> OperatorCoefficients:
    """Coefficients of the linearization: the formal partials of each entry."""
    data: dict[tuple[int, int, MultiIndex], Expr] = {}
    for label, component in chi.items():
        target = label[1] if label[0] == "u" else PRESSURE_SLOT
        for v in component.variables():
            if v.kind == "u":
                data[(target, v.mu, v.index)] = component.diff(v)
            elif v.kind == "p":
                data[(target, PRESSURE_SLOT, v.index)] = component.diff(v)
    return OperatorCoefficients(data)


def formal_adjoint(chi: Cotuple) -> OperatorCoefficients:
    """Coefficients of the formal adjoint: the adjoint of the linearization."""
    return operator_adjoint(frechet_linearization(chi))


def operator_adjoint(op: OperatorCoefficients) -> OperatorCoefficients:
    """The adjoint of a general coefficient family: transpose and integrate by parts."""
    parts: dict[tuple[int, int, MultiIndex], list[Expr]] = {}
    for (target, source, i), expr in op.items():
        sign = -1 if i.total % 2 else 1
        d = derivatives(total_derivative, expr)  # l by total order: one derivative of a kept tail each
        below = sub_indices(i)  # in canonical order, which l -> i - l reverses
        for l, k in zip(below, reversed(below)):
            scale = sign * i.binomial(k)
            parts.setdefault((source, target, k), []).append(
                d(l.path) if scale == 1 else scale * d(l.path)
            )
    return OperatorCoefficients({key: expr_sum(exprs) for key, exprs in parts.items()})


def helmholtz_residual(chi: Cotuple) -> OperatorCoefficients:
    """Linearization minus formal adjoint; empty exactly for variational cotuples."""
    linearization = frechet_linearization(chi)
    return linearization - operator_adjoint(linearization)


def current_divergence(ctx: ReductionContext, current: CurrentTuple) -> Expr:
    """The reduced divergence of the flux; zero for a conserved current."""
    if current.m != ctx.m:
        raise ValueError(f"current has {current.m} components, context m={ctx.m}")
    flux = (total_derivative(mu, comp) for (_, mu), comp in current.items())
    return reduce(ctx, expr_sum(flux))
