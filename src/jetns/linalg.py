"""Exact linear algebra over the rationals for sparse constraint systems.

Rows are kept as sparse integer mappings in one normal form, primitive:
coprime integers, positive at the lowest column.  Rows arrive integral,
since their entries are expression coefficients, which are ints when
integral; only a row that holds a Fraction is scaled by the lcm of its
denominators.  Elimination is one forward, fraction-free pass to echelon
pivots: cross-multiplication keeps entries integral, and every reduced
row is made primitive again to control growth.  Each step is linear in
the row, so its sign does not change the final row.  Each reduced row
pivots on its smallest column, rows in the order given.  The pivot
columns, and so the solution basis, do not depend on that order.
Solutions back-solve the pivots in reverse column order, sparsely: a
solution keeps only its nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = dict[int, int]


def _primitive(row: dict[int, int | Fraction]) -> Row:
    """The row as coprime integers, positive at its lowest column, zeros dropped."""
    row = {c: v for c, v in row.items() if v != 0}
    if not row:
        return row
    if not all(type(v) is int for v in row.values()):
        scale = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
    content = gcd(*row.values())
    if row[min(row)] < 0:
        content = -content
    return {c: v // content for c, v in row.items()}


def _eliminate(row: Row, pivots: dict[int, Row]) -> Row:
    """Reduce one primitive row against the pivot rows, fraction-free."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return row
        a = pivot[lead]
        b = row[lead]
        merged = {c: a * v for c, v in row.items()}
        for c, v in pivot.items():
            merged[c] = merged.get(c, 0) - b * v
        row = _primitive(merged)
    return {}


def row_reduce(rows: list[dict[int, int | Fraction]]) -> dict[int, Row]:
    """Echelon pivots keyed by pivot column; each row is zero left of its pivot."""
    pivots: dict[int, Row] = {}
    for raw in rows:
        row = _eliminate(_primitive(raw), pivots)
        if row:
            pivots[min(row)] = row
    return pivots


def nullspace(rows: list[dict[int, int | Fraction]], ncols: int) -> list[tuple[int, ...]]:
    """An exact basis of the solution space of the homogeneous system.

    One vector per free column, in ascending order: that column 1, the
    other free columns 0, the pivots back-solved in reverse column order.
    Each is scaled to coprime integers, positive at its free column.  The
    rows may come in any order: the pivot columns depend only on the row
    space, and each vector is the one solution so fixed.  The back-solve
    keeps a vector's nonzero entries only and multiplies only those.
    """
    pivots = row_reduce(rows)
    order = sorted(pivots, reverse=True)
    basis: list[tuple[int, ...]] = []
    for free in (c for c in range(ncols) if c not in pivots):
        solution = {free: Fraction(1)}
        for col in order:
            row = pivots[col]
            acc = 0
            for c, v in row.items():
                x = solution.get(c)
                if x is not None:
                    acc += v * x
            if acc:
                solution[col] = -acc / row[col]
        # the free entry is 1, so clearing denominators leaves coprime integers
        scale = lcm(*(v.denominator for v in solution.values()))
        vec = [0] * ncols
        for c, v in solution.items():
            vec[c] = v.numerator * (scale // v.denominator)
        basis.append(tuple(vec))
    return basis


def rank(vectors: list[tuple[Fraction, ...]]) -> int:
    """Rank of the span of the given vectors."""
    return len(row_reduce([dict(enumerate(vec)) for vec in vectors]))


def in_span(vectors: list[tuple[Fraction, ...]], candidate: tuple[Fraction, ...]) -> bool:
    return rank(vectors) == rank(vectors + [candidate])


def same_span(a: list[tuple[Fraction, ...]], b: list[tuple[Fraction, ...]]) -> bool:
    r_a, r_b = rank(a), rank(b)
    return r_a == r_b == rank(a + b)
