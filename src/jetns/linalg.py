"""Exact linear algebra over the rationals for sparse constraint systems.

Rows are kept as sparse integer mappings.  Rows arrive integral: their
entries are expression coefficients, which are ints when integral, so
clearing denominators reads each entry's numerator and denominator and
wraps nothing in a Fraction.  A row that does hold a Fraction is scaled
by the lcm of its denominators.  Elimination is one forward,
fraction-free pass to echelon pivots: cross-multiplication keeps entries
integral, and the content of every reduced row is divided out to control
growth.  Each reduced row pivots on its smallest column, rows in the
order given; solutions back-solve the pivots in reverse column order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = dict[int, int]


def _clear_denominators(row: dict[int, int | Fraction]) -> Row:
    entries = {c: v for c, v in row.items() if v != 0}
    if not entries:
        return {}
    scale = lcm(*(v.denominator for v in entries.values()))
    cleared = {c: v.numerator * (scale // v.denominator) for c, v in entries.items()}
    content = gcd(*cleared.values())
    return {c: v // content for c, v in cleared.items()}


def _normalize(row: Row) -> Row:
    row = {c: v for c, v in row.items() if v != 0}
    if not row:
        return row
    content = gcd(*row.values())
    lead = min(row)
    sign = 1 if row[lead] > 0 else -1
    return {c: v // (sign * content) for c, v in row.items()}


def _eliminate(row: Row, pivots: dict[int, Row]) -> Row:
    """Reduce one row against the pivot rows, fraction-free."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return _normalize(row)
        a = pivot[lead]
        b = row[lead]
        merged = {c: a * v for c, v in row.items()}
        for c, v in pivot.items():
            merged[c] = merged.get(c, 0) - b * v
        row = {c: v for c, v in merged.items() if v != 0}
        if row:
            content = gcd(*row.values())
            row = {c: v // content for c, v in row.items()}
    return {}


def row_reduce(rows: list[dict[int, int | Fraction]]) -> dict[int, Row]:
    """Echelon pivots keyed by pivot column; each row is zero left of its pivot."""
    pivots: dict[int, Row] = {}
    for raw in rows:
        row = _eliminate(_clear_denominators(raw), pivots)
        if row:
            pivots[min(row)] = row
    return pivots


def nullspace(rows: list[dict[int, int | Fraction]], ncols: int) -> list[tuple[int, ...]]:
    """An exact basis of the solution space of the homogeneous system.

    One vector per free column, in ascending order: that column 1, the
    other free columns 0, the pivots back-solved in reverse column order.
    Each is scaled to coprime integers, positive at its free column.
    """
    pivots = row_reduce(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis: list[tuple[int, ...]] = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            acc = Fraction(0)
            for c, v in row.items():
                if c != col:
                    acc += v * vec[c]
            vec[col] = -acc / row[col]
        # the free entry is 1, so clearing denominators leaves coprime integers
        scale = lcm(*(v.denominator for v in vec))
        basis.append(tuple(v.numerator * (scale // v.denominator) for v in vec))
    return basis


def rank(vectors: list[tuple[Fraction, ...]]) -> int:
    """Rank of the span of the given vectors."""
    return len(row_reduce([dict(enumerate(vec)) for vec in vectors]))


def in_span(vectors: list[tuple[Fraction, ...]], candidate: tuple[Fraction, ...]) -> bool:
    return rank(vectors) == rank(vectors + [candidate])


def same_span(a: list[tuple[Fraction, ...]], b: list[tuple[Fraction, ...]]) -> bool:
    r_a, r_b = rank(a), rank(b)
    return r_a == r_b == rank(a + b)
