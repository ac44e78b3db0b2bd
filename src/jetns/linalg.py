"""Exact linear algebra over the rationals for sparse constraint systems.

Rows are kept as sparse integer mappings in one normal form, primitive:
coprime integers, positive at the lowest column.  Rows arrive integral,
since their entries are expression coefficients, which are ints when
integral; only a row that holds a Fraction is scaled by the lcm of its
denominators.

Elimination first peels singleton rows (structured Gaussian elimination,
LaMacchia & Odlyzko 1990): a row with one nonzero entry, in column c,
forces that unknown to zero, so c pivots as the unit row {c: 1} and is
dropped from every other row, which may leave another row a singleton.
A column -> rows index and a worklist drive this in time linear in the
entries.  Subtracting multiples of a unit row keeps the row space.

The rows left with live columns, peeled columns dropped, go through one
forward, fraction-free pass: cross-multiplication keeps entries integral,
and every reduced row is made primitive again to control growth; each
step is linear in the row, so its sign does not change the final row.
Each reduced row pivots on its smallest column, rows in the order
given.  No such row holds a peeled column, so every pivot row leads at a
column of its own, and together they span the row space.  The pivot
columns, and so the solution basis, are therefore those of the row space
alone, whatever the order of the rows or of the peeling.  Solutions
back-solve the pivots in reverse column order, sparsely: a solution
keeps only its nonzero entries.  A one-entry pivot, peeled or not, is
not back-solved: its column is zero in every solution.
"""

from __future__ import annotations

from collections import defaultdict
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
    """Echelon pivots keyed by pivot column; each row is zero left of its pivot.

    Singleton rows are peeled first, then the rest are eliminated; the
    caller's rows are read, never changed.
    """
    live: list[int] = []
    holders: defaultdict[int, list[int]] = defaultdict(list)
    for i, raw in enumerate(rows):
        count = 0
        for c, v in raw.items():
            if v:
                holders[c].append(i)
                count += 1
        live.append(count)
    units: dict[int, Row] = {}
    work = [i for i, count in enumerate(live) if count == 1]
    while work:
        i = work.pop()
        if live[i] != 1:
            continue  # peeled down to nothing since it was queued
        for col, v in rows[i].items():
            if v and col not in units:
                break
        units[col] = {col: 1}
        for j in holders[col]:
            live[j] -= 1
            if live[j] == 1:
                work.append(j)
    pivots: dict[int, Row] = {}
    for raw, count in zip(rows, live):
        if count:
            row = _primitive({c: v for c, v in raw.items() if c not in units})
            row = _eliminate(row, pivots)
            if row:
                pivots[min(row)] = row
    pivots.update(units)
    return pivots


def nullspace(rows: list[dict[int, int | Fraction]], ncols: int) -> list[tuple[int, ...]]:
    """An exact basis of the solution space of the homogeneous system.

    One vector per free column, in ascending order: that column 1, the
    other free columns 0, the pivots back-solved in reverse column order.
    Each is scaled to coprime integers, positive at its free column.  The
    rows may come in any order: the pivot columns depend only on the row
    space, and each vector is the one solution so fixed.  The back-solve
    keeps nonzero entries only and skips one-entry pivots, forced zeros.
    """
    pivots = row_reduce(rows)
    order = sorted((c for c, row in pivots.items() if len(row) > 1), reverse=True)
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
