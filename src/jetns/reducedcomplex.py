"""The reduced complex along the distinguished direction and its kernel.

After flattening the first direction, cohomology representatives live in
finite tuples indexed by the residual first-direction order; a tuple is
built only from its entries, keyed by label.  The derivative transported
to these tuples is the componentwise restricted first derivative plus a
linear correction coming from the characteristic that generates the
restricted derivative.  Kernels of that operator are computed exactly at
bounded ansatz size by assembling one linear constraint per output
monomial and solving over the rationals.

The correction is one table keyed by the entry's label.  An entry f adds
to the target entries, with a, b in 2..m, D the restricted derivatives,
u^b_(a) the velocity jet u^b with one derivative along a and div' the
sum of u^b_(b) and Laplacian' the sum of D_a D_a:

    source              target                contribution
    chi01               (chi_alpha, 0, a)     D_a f
    (chi_alpha, i1, a)  (chi_alpha, i1+1, a)  f
    (chi_p, i1)         (chi_p, i1+1)         f
    chi0                chi1                  f
    chi1                chi01                 2 sum_a D_a(u^a_(1) f)
                        (chi_alpha, 0, a)     2 D_a(div' f) + 2 sum_b D_b(u^b_(a) f)
                        (chi_alpha, 1, a)     -2 u^1_(a) f
                        chi0                  -Laplacian' f

The continuity and joint labels are disjoint, so the table never asks
for the setting, and each entry does only the work of its own rows.

An entry's transported derivative is D_1 f at its own label plus its
correction; the first-order system of the joint setting sends it to
residual names.  _terms holds the three rules, "correction" (this
table), "derivative" and "system", as data: per (rule, label), terms
g D_path f or D_b(g D_path f).  _rows expands them through Leibniz into
rows (target, c, path) once per (context, rule, label), so no product of
a coordinate and f is differentiated.  Every consumer reads those rows:
correction, reduced_derivative and reduced_system_residuals sum them
over a tuple's entries in the one loop of _sum_entries, and kernel
assembly applies them to one monomial at one label, with no tuple built.
Assembly runs monomial-major, so the columns of all labels read one
table of D_path f per monomial, and it indexes its rows by output slot,
then by output monomial.

Before assembly, singleton presolve over (label, monomial) pairs pins
the unknowns every solution sets to zero, reading each label's rows.  A
label's write to a slot multiplies by c when its one row into the slot
has path () or None (reduce, the identity on ansatz monomials) and c is
one term.  The label shifts and higher_velocity_vanish have c = 1;
chi1's writes to (chi_alpha, 1, a) and velocity_slaved[a] have c = -2
u^1_(a).  On a slot whose live writers all multiply by one term, (L, M)
enters only the row (slot, c M); a row with one unpinned unknown pins
it, and a label pinned whole leaves the writers, so the shifts cascade
from the top order down.  In ce every label but chi01 goes; in cpe the
chi_alpha labels of order 1 and up, and most unknowns of (chi_alpha, 0,
a) and chi1.  A pinned unknown is zero in every solution, a pivot and
never free, so dropping its column keeps the free columns, pivots and
vectors of full assembly, and so the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product

from . import linalg
from .constraints import (
    ReductionContext,
    Setting,
    reduce,
    restricted_derivative,
    velocity_gradient_entry,
)
from .jetalgebra import (
    Expr,
    Monomial,
    T_VAR,
    _merge_monomials,
    _monomial_key,
    _pack,
    _raw,
    expr_sum,
    pvar,
    u,
    uvar,
    xvar,
)
from .multiindex import indices_up_to, unit
from .tuples import SHAPES, ChiTuple, ChiTupleCPE
from .variational import euler_collect


@dataclass(frozen=True)
class AnsatzSpec:
    """Finite truncation of the tuple space for kernel search.

    max_order bounds the jet order of the ansatz variables and the
    first-direction support of the velocity block; max_degree bounds the
    total monomial degree; max_x_degree bounds the coordinate degree
    within it; include_t admits the time symbol.
    """

    max_order: int = 0
    max_degree: int = 0
    max_x_degree: int = 0
    include_t: bool = False

    def __post_init__(self) -> None:
        if self.max_order < 0 or self.max_degree < 0 or self.max_x_degree < 0:
            raise ValueError("ansatz bounds must be non-negative")


class AnsatzTooLargeError(ValueError):
    def __init__(self, required: int, cap: int):
        super().__init__(
            f"ansatz requires {required} unknown coefficients, cap is {cap}"
        )
        self.required = required
        self.cap = cap


# -- the transported derivative -------------------------------------------


def _terms(ctx: ReductionContext, rule: str, label: tuple) -> list:
    """The row of the entry at label under rule as terms (target, g, b, path).

    rule is "correction", "derivative" (D_1 f at the label plus the
    correction) or "system".  A term adds g D_path f to its target, or
    D_b(g D_path f) when b is set; a path is a tuple of directions, () for
    f itself, or None for reduce(f).
    """
    m, kind, one = ctx.m, label[0], Expr.const(1)
    alphas, directions = range(2, m + 1), range(1, m + 1)
    if rule == "derivative":
        return [(label, one, None, (1,)), *_terms(ctx, "correction", label)]
    if kind == "chi01" and rule == "correction":
        return [(("chi_alpha", 0, a), one, None, (a,)) for a in alphas]
    if kind == "chi01":
        return [("gradient_first", one, None, (1,))] + [(f"gradient[{a}]", one, None, (a,)) for a in alphas]
    if kind != "chi1" and rule == "correction":  # the label shifts
        target = ("chi1",) if kind == "chi0" else (kind, label[1] + 1, *label[2:])
        return [(target, one, None, ())]
    if kind == "chi0":  # reduced, as not differentiated; every other output is canonical
        return [("pressure_slaved", one, None, None)]
    if kind == "chi_alpha":
        i1, a = label[1:]
        name = f"velocity_slaved[{a}]" if i1 == 0 else f"higher_velocity_vanish[{i1},{a}]"
        return [(name, one, None, None)]
    grad = partial(velocity_gradient_entry, ctx)  # chi1 from here on
    div = expr_sum(u(b, unit(b, m)) for b in alphas)
    if rule == "correction":
        terms = [(("chi01",), 2 * u(a, unit(1, m)), a, ()) for a in alphas]
        for a in alphas:
            terms.append((("chi_alpha", 0, a), 2 * div, a, ()))
            terms += [(("chi_alpha", 0, a), 2 * u(b, unit(a, m)), b, ()) for b in alphas]
            terms.append((("chi_alpha", 1, a), -2 * u(1, unit(a, m)), None, ()))
        return terms + [(("chi0",), -one, None, (a, a)) for a in alphas]
    terms = [(f"velocity_slaved[{a}]", -2 * u(1, unit(a, m)), None, ()) for a in alphas]
    terms.append(("pressure_slaved", one, None, (1,)))
    terms += [("harmonic", one, None, (mu, mu)) for mu in directions]
    for a in alphas:
        terms += [(f"compatibility[{a}]", grad(mu, 1), None, (mu, a)) for mu in directions]
        terms += [(f"compatibility[{a}]", -grad(mu, a), None, (mu, 1)) for mu in directions]
    terms += [("gradient_first", 2 * u(a, unit(1, m)), a, ()) for a in alphas]
    for a in alphas:
        terms += [(f"gradient[{a}]", 2 * grad(mu, a), None, (mu,)) for mu in directions]
        terms.append((f"gradient[{a}]", 2 * div, a, ()))
    return terms


@lru_cache(maxsize=1024)
def _rows(ctx: ReductionContext, rule: str, label: tuple) -> tuple:
    """The row of the entry at label under rule as (target, c, path), built once per key.

    Each term is expanded through Leibniz.  Paths are sorted, since
    restricted derivatives commute; the coefficients of a (target, path)
    are summed, and 1 and -1 stay ints, so applying them takes no product.
    """
    sums: dict[tuple, list[Expr]] = {}  # (target, sorted path) -> its coefficients
    for target, g, b, path in _terms(ctx, rule, label):
        parts = [(g, path)]
        if b is not None:  # D_b(g D_path f) = D_b(g) D_path f + g D_(b, path) f
            parts = [(restricted_derivative(ctx, b, g), path), (g, (b, *path))]
        for c, c_path in parts:
            key = c_path if c_path is None else tuple(sorted(c_path))
            sums.setdefault((target, key), []).append(c)
    rows = []
    for (target, path), gs in sums.items():
        c = expr_sum(gs)
        rows.append((target, c.constant_value() if c in (1, -1) else c, path))
    return tuple(rows)


def _entries(ctx: ReductionContext, rule: str, label: tuple, f: Expr, df):
    """The (target, expression) pairs of the entry f at label under rule, df(path) being D_path f."""
    for target, c, path in _rows(ctx, rule, label):
        d = reduce(ctx, f) if path is None else df(path)
        yield target, c * d if type(c) is Expr else d if c == 1 else -d


def _derivative_table(ctx: ReductionContext, f: Expr):
    """df with df(path) = D_path f, for up to two directions, each computed on first request."""
    table: dict[tuple, Expr] = {(): f}
    def df(path: tuple) -> Expr:  # not recursive: a closure naming itself is a cycle for the gc
        d = table.get(path)
        if d is None:
            inner = table.get(path[1:])
            if inner is None:  # the tail D_a f of D_(mu, a) f
                inner = table[path[1:]] = restricted_derivative(ctx, path[1], f)
            d = table[path] = restricted_derivative(ctx, path[0], inner)
        return d
    return df


def _shape(ctx: ReductionContext, what: str) -> type[ChiTuple]:
    """The tuple class of the context's setting."""
    shape = SHAPES.get(f"chi_{ctx.setting.value}")
    if shape is None:
        raise ValueError(f"{what} requires the ce or cpe setting")
    return shape


def _sum_entries(ctx: ReductionContext, chi: ChiTuple, rule: str, what: str, entries: dict) -> dict:
    """entries plus every entry's rows under rule, summed by target."""
    shape = _shape(ctx, what)
    if type(chi) is not shape or chi.m != ctx.m:
        raise ValueError(
            f"the {ctx.setting.value} setting at m={ctx.m} takes a {shape.__name__}, "
            f"not a {type(chi).__name__} at m={chi.m}"
        )
    for label, f in chi.items():
        for target, expr in _entries(ctx, rule, label, f, _derivative_table(ctx, f)):
            entries[target] = entries.get(target, Expr.zero()) + expr
    return entries


def correction(ctx: ReductionContext, chi: ChiTuple) -> ChiTuple:
    """The linear correction of the transported derivative: every entry's rows, summed."""
    return type(chi)(chi.m, _sum_entries(ctx, chi, "correction", "correction", {}))


def reduced_derivative(ctx: ReductionContext, chi: ChiTuple) -> ChiTuple:
    """Componentwise restricted first derivative plus the correction."""
    return type(chi)(chi.m, _sum_entries(ctx, chi, "derivative", "reduced derivative", {}))


# -- the equivalent first-order system (joint setting) ---------------------


def reduced_system_residuals(
    ctx: ReductionContext, chi: ChiTupleCPE
) -> list[tuple[str, Expr]]:
    """Residuals of the first-order system equivalent to the kernel equation.

    Vanishing of every entry characterizes kernel elements of the
    transported derivative in the joint setting: the velocity block is
    slaved to the pressure entries, the top pressure entry is harmonic
    with a compatibility condition, and chi01 solves a gradient system.
    """
    if ctx.setting is not Setting.CPE:
        raise ValueError("the reduced system lives in the cpe setting")
    alpha_range = range(2, ctx.m + 1)
    names = [f"velocity_slaved[{a}]" for a in alpha_range]
    names += [f"higher_velocity_vanish[{i1},{a}]" for i1, a in chi.chi_alpha if i1 >= 1]
    names += ["pressure_slaved", "harmonic"] + [f"compatibility[{a}]" for a in alpha_range]
    names += ["gradient_first"] + [f"gradient[{a}]" for a in alpha_range]
    entries = dict.fromkeys(names, Expr.zero())
    return list(_sum_entries(ctx, chi, "system", "reduced system", entries).items())


# -- the variational derivative of the auxiliary complex -------------------


def reduced_variational_derivative(ctx: ReductionContext, L: Expr):
    """Integration by parts along the directions 2..m, grouped by tuple slot."""
    shape = _shape(ctx, "reduced variational derivative")
    entries: dict[tuple, Expr] = {}
    for (kind, mu, remainder), expr in euler_collect(L, range(2, ctx.m + 1)).items():
        i1 = remainder[0]
        if kind == "u" and mu == 1:
            label = ("chi01",) if i1 == 0 else None
        elif kind == "u":
            label = ("chi_alpha", i1, mu)
        else:  # the shape's pressure labels, indexed by first-direction order
            pressure = [k for k in shape.labels(ctx.m, i1) if k[0] not in ChiTuple.kinds]
            label = pressure[i1] if i1 < len(pressure) else None
        if label is None:
            raise ValueError("density is not in canonical coordinates")
        entries[label] = entries.get(label, Expr.zero()) + expr
    return shape(ctx.m, entries)


# -- bounded-order kernel search --------------------------------------------


def _ansatz_monomials(ctx: ReductionContext, ansatz: AnsatzSpec) -> list[Monomial]:
    """All canonical-coordinate monomials within the ansatz bounds."""
    m = ctx.m
    pool = [xvar(mu) for mu in range(1, m + 1)]
    if ansatz.include_t:
        pool.append(T_VAR)
    for i in indices_up_to(m, ansatz.max_order):
        for v in [uvar(mu, i) for mu in range(1, m + 1)] + [pvar(i)]:
            if ctx.image(v) is None:  # a canonical coordinate of the setting
                pool.append(v)
    pool.sort(key=lambda v: v.sort_key())

    monomials = [
        _pack((v, 1) for v in combo)
        for degree in range(ansatz.max_degree + 1)
        for combo in combinations_with_replacement(pool, degree)
        if sum(v.kind == "x" for v in combo) <= ansatz.max_x_degree
    ]
    monomials.sort(key=_monomial_key)
    return monomials


@lru_cache(maxsize=64)
def _ansatz_axes(
    ctx: ReductionContext, ansatz: AnsatzSpec
) -> tuple[tuple[tuple, ...], tuple[Monomial, ...]]:
    """The ansatz labels and monomials, built once per (context, ansatz).

    The unknowns are their pairs, label-major.  Tuples, so no caller can
    change what the next one reads.
    """
    shape = _shape(ctx, "kernel search")
    return tuple(shape.labels(ctx.m, ansatz.max_order)), tuple(_ansatz_monomials(ctx, ansatz))


def _unknowns(ctx: ReductionContext, ansatz: AnsatzSpec) -> list[tuple[tuple, Monomial]]:
    """The unknown coefficients as (label, monomial): label-major, then monomial."""
    return list(product(*_ansatz_axes(ctx, ansatz)))


def _writes(ctx: ReductionContext, labels: tuple, rule: str) -> dict:
    """slot -> {label: c}: c when the label's only row into the slot multiplies f or reduce(f)
    by the one term c, else None."""
    writes: dict = {}
    for label in labels:
        for slot, c, path in _rows(ctx, rule, label):
            c = Expr.const(c) if type(c) is int else c
            by_label = writes.setdefault(slot, {})
            one_term = path in ((), None) and len(c._unsorted_items()) == 1
            by_label[label] = c if one_term and label not in by_label else None
    return writes


@lru_cache(maxsize=64)
def _forced_zero_unknowns(ctx: ReductionContext, ansatz: AnsatzSpec, rule: str) -> tuple:
    """Per ansatz label, the monomial positions whose unknowns every solution zeroes: the
    singleton cascade of the module docstring over _writes, run until nothing changes."""
    labels, monomials = _ansatz_axes(ctx, ansatz)
    width = len(monomials)
    writes = _writes(ctx, labels, rule)
    pinned: dict = {label: set() for label in labels}  # a label pinned whole holds range(width)
    grew = True
    while grew:
        grew = False
        for writers in writes.values():
            live = [(label, c) for label, c in writers.items() if len(pinned[label]) < width]
            if any(c is None for _, c in live):
                continue
            if len(live) == 1:
                pinned[live[0][0]] = range(width)
                grew = True
                continue
            rows: dict = {}  # output monomial -> its unpinned (label, position) unknowns
            for label, c in live:
                [(c_mono, _)] = c._unsorted_items()
                for pos, mono in enumerate(monomials):
                    if pos not in pinned[label]:
                        rows.setdefault(_merge_monomials(c_mono, mono), []).append((label, pos))
            for label, pos in (row[0] for row in rows.values() if len(row) == 1):
                pinned[label].add(pos)
                grew = True
    return tuple(frozenset(pinned[label]) for label in labels)


def _solve_homogeneous(
    ctx: ReductionContext, ansatz: AnsatzSpec, rule: str, max_unknowns: int
) -> list:
    """Nullspace basis of a chi-linear constraint map within the ansatz.

    The rows of rule send the one-entry tuple f at label to (slot,
    expression) pairs, and every one must vanish identically.  Each (slot,
    monomial) of the outputs is one linear constraint on the unknown
    coefficients, and each unknown fills its column of the rows.  Assembly
    runs monomial by monomial, so each monomial's derivatives are computed
    once for all labels.  The unknowns _forced_zero_unknowns pins get no
    column: the others are numbered label-major, and each vector is mapped
    back.
    """
    shape = _shape(ctx, "kernel search")
    labels, monomials = _ansatz_axes(ctx, ansatz)
    count = len(labels) * len(monomials)
    if count > max_unknowns:
        raise AnsatzTooLargeError(count, max_unknowns)
    kept = [  # the unpinned unknowns as (label, monomial position), column by column
        (label, pos)
        for label, zero in zip(labels, _forced_zero_unknowns(ctx, ansatz, rule))
        for pos in range(len(monomials)) if pos not in zero
    ]
    columns: list = [[] for _ in monomials]  # monomial position -> its (label, column) pairs
    for col, (label, pos) in enumerate(kept):
        columns[pos].append((label, col))

    rows: list[dict[int, int | Fraction]] = []  # in first-seen order
    index: dict = {}  # slot -> output monomial -> its row
    for mono, mono_columns in zip(monomials, columns):
        f = _raw({mono: 1})
        df = _derivative_table(ctx, f)
        for label, col in mono_columns:
            for slot, expr in _entries(ctx, rule, label, f, df):
                by_mono = index.setdefault(slot, {})
                for out_mono, coeff in expr._unsorted_items():
                    row = by_mono.get(out_mono)
                    if row is None:
                        row = by_mono[out_mono] = {col: coeff}
                        rows.append(row)
                    else:
                        row[col] = row.get(col, 0) + coeff

    # the basis does not depend on the order of the rows (see linalg.nullspace)
    basis = []
    for vec in linalg.nullspace(rows, len(kept)):
        terms: dict[tuple, dict[Monomial, int]] = {}
        for (label, pos), coeff in zip(kept, vec):
            if coeff != 0:
                terms.setdefault(label, {})[monomials[pos]] = coeff
        basis.append(shape(ctx.m, {label: _raw(t) for label, t in terms.items()}))
    return basis


def kernel_search(
    ctx: ReductionContext, ansatz: AnsatzSpec, max_unknowns: int = 4000
) -> list:
    """Exact kernel basis of the transported derivative within the ansatz.

    Every tuple built from the ansatz monomials with unknown rational
    coefficients is required to map to the identically zero tuple; each
    monomial of each output component contributes one linear constraint.
    The basis is deterministically ordered and scaled to coprime
    integers.
    """
    return _solve_homogeneous(ctx, ansatz, "derivative", max_unknowns)


def reduced_system_kernel(
    ctx: ReductionContext, ansatz: AnsatzSpec, max_unknowns: int = 4000
) -> list:
    """Solution basis of the first-order reduced system within the ansatz.

    Solves the same unknown space as kernel_search against the
    reduced-system residuals instead of the transported derivative, so
    the two solution spaces can be compared.
    """
    if ctx.setting is not Setting.CPE:
        raise ValueError("the reduced system lives in the cpe setting")
    return _solve_homogeneous(ctx, ansatz, "system", max_unknowns)


def kernel_vectors(ctx: ReductionContext, ansatz: AnsatzSpec, chi) -> tuple[Fraction, ...]:
    """Coordinates of a tuple in the ansatz unknown basis (for span tests).

    Raises if a component involves a monomial outside the ansatz.
    """
    position = {unknown: k for k, unknown in enumerate(_unknowns(ctx, ansatz))}
    vec = [Fraction(0)] * len(position)
    for slot, expr in chi.items():
        for mono, coeff in expr._unsorted_items():
            key = (slot, mono)
            if key not in position:
                raise ValueError(f"component {slot} uses a monomial outside the ansatz")
            vec[position[key]] = coeff
    return tuple(vec)
