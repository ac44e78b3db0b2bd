"""The reduced complex along the distinguished direction and its kernel.

After flattening the first direction, cohomology representatives live in
finite tuples indexed by the residual first-direction order; a tuple is
built only from its entries, keyed by label.  The derivative transported
to these tuples is the componentwise restricted first derivative plus a
linear correction coming from the characteristic that generates the
restricted derivative.  Kernels of that operator are computed exactly at
bounded ansatz size by assembling one linear constraint per output
monomial and solving over the rationals.

The correction is one rule keyed by the entry's label.  An entry f adds
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

The continuity and joint labels are disjoint, so the rule never asks
for the setting, and each entry does only the work of its own rows.

An entry's transported derivative is D_1 f at its own label plus its
correction entries.  reduced_derivative sums that one rule over a
tuple's entries, and kernel assembly reads each unknown's column of the
constraint matrix from the same rule, applied to one monomial at one
label, with no tuple built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import linalg
from .constraints import (
    ReductionContext,
    Setting,
    reduce,
    restricted_derivative,
    restricted_laplacian,
    restricted_laplacian_primed,
    velocity_gradient_entry,
)
from .jetalgebra import (
    Expr,
    Monomial,
    T_VAR,
    _monomial_key,
    _raw,
    expr_sum,
    pvar,
    u,
    uvar,
    xvar,
)
from .multiindex import indices_up_to, unit
from .variational import euler_collect


_KIND_RANK = {"chi01": 0, "chi_alpha": 1, "chi_p": 2, "chi0": 2, "chi1": 3}


class ChiTuple:
    """A tuple of the reduced complex: its nonzero entries keyed by label.

    ("chi01",) is the entry dual to the unconstrained first velocity
    component and ("chi_alpha", i1, a) the entry at first-direction order
    i1 and spatial component a in 2..m.  Each subclass declares its
    pressure block by pressure_labels(max_order): the pressure labels of
    an ansatz up to that first-direction order, indexed by order.  A tuple
    is built only from its entries keyed by label: ChiTupleCE({label: f}).
    Zero entries are dropped and the rest kept in canonical order: chi01,
    chi_alpha by (i1, a), pressure.
    """

    def __init_subclass__(cls) -> None:
        cls._kinds = frozenset(["chi01", "chi_alpha"] + [p[0] for p in cls.pressure_labels(0)])

    def __init__(self, entries: Mapping[tuple, Expr] = {}) -> None:
        if not {label[0] for label in entries} <= self._kinds:
            raise ValueError(f"{type(self).__name__} has no entry for one of {list(entries)}")
        nonzero = [(k, v) for k, v in entries.items() if not v.is_zero()]
        self._entries = dict(sorted(nonzero, key=lambda kv: (_KIND_RANK[kv[0][0]], kv[0][1:])))

    @classmethod
    def allows(cls, label: tuple) -> bool:
        return label[0] in cls._kinds

    @classmethod
    def ansatz_labels(cls, m: int, max_order: int) -> list[tuple]:
        velocity = [
            ("chi_alpha", i1, a) for i1 in range(max_order + 1) for a in range(2, m + 1)
        ]
        return [("chi01",)] + velocity + cls.pressure_labels(max_order)

    def items(self) -> list[tuple[tuple, Expr]]:
        return list(self._entries.items())

    def is_zero(self) -> bool:
        return not self._entries

    def reduce(self, ctx: ReductionContext) -> ChiTuple:
        return type(self)({k: reduce(ctx, v) for k, v in self._entries.items()})

    @property
    def chi01(self) -> Expr:
        return self._entries.get(("chi01",), Expr.zero())

    @property
    def chi_alpha(self) -> dict[tuple[int, int], Expr]:
        """Entries by (first-direction order, spatial component)."""
        return {label[1:]: v for label, v in self._entries.items() if label[0] == "chi_alpha"}

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class ChiTupleCE(ChiTuple):
    """Tuple for the continuity-setting complex.

    The pressure block keeps one entry ("chi_p", i1) per first-direction
    order i1; chi_p maps i1 to that entry.
    """

    @staticmethod
    def pressure_labels(max_order: int) -> list[tuple]:
        return [("chi_p", i1) for i1 in range(max_order + 1)]

    @property
    def chi_p(self) -> dict[int, Expr]:
        return {label[1]: v for label, v in self._entries.items() if label[0] == "chi_p"}


class ChiTupleCPE(ChiTuple):
    """Tuple for the joint-setting complex.

    Velocity entries as in the continuity shape; the pressure block
    collapses to the two entries chi0 and chi1 because only the first two
    first-direction orders of the pressure survive the reduction.
    """

    @staticmethod
    def pressure_labels(max_order: int) -> list[tuple]:
        return [("chi0",), ("chi1",)]

    @property
    def chi0(self) -> Expr:
        return self._entries.get(("chi0",), Expr.zero())

    @property
    def chi1(self) -> Expr:
        return self._entries.get(("chi1",), Expr.zero())


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


def _correction_entries(ctx: ReductionContext, label: tuple, f: Expr):
    """The (target label, expression) pairs the entry f at label adds to the correction."""
    m = ctx.m
    alpha_range = range(2, m + 1)
    d = lambda a, g: restricted_derivative(ctx, a, g)
    kind = label[0]
    if kind == "chi01":
        for a in alpha_range:
            yield ("chi_alpha", 0, a), d(a, f)
    elif kind in ("chi_alpha", "chi_p"):
        yield (kind, label[1] + 1) + label[2:], f
    elif kind == "chi0":
        yield ("chi1",), f
    else:  # chi1
        yield ("chi01",), 2 * expr_sum(d(a, u(a, unit(1, m)) * f) for a in alpha_range)
        div_block = expr_sum(u(b, unit(b, m)) for b in alpha_range)
        for a in alpha_range:
            yield ("chi_alpha", 0, a), 2 * d(a, div_block * f) + 2 * expr_sum(
                d(b, u(b, unit(a, m)) * f) for b in alpha_range
            )
            yield ("chi_alpha", 1, a), -2 * u(1, unit(a, m)) * f
        yield ("chi0",), -restricted_laplacian_primed(ctx, f)


_SHAPES = {Setting.CE: ChiTupleCE, Setting.CPE: ChiTupleCPE}


def _shape(ctx: ReductionContext, what: str) -> type[ChiTuple]:
    """The tuple class of the context's setting."""
    if ctx.setting not in _SHAPES:
        raise ValueError(f"{what} requires the ce or cpe setting")
    return _SHAPES[ctx.setting]


def _derivative_entries(ctx: ReductionContext, label: tuple, f: Expr):
    """The (target label, expression) pairs of the entry f at label in D_1 plus the correction."""
    yield label, restricted_derivative(ctx, 1, f)
    yield from _correction_entries(ctx, label, f)


def _sum_entries(ctx: ReductionContext, chi: ChiTuple, rule, what: str) -> ChiTuple:
    """The tuple of every entry's rule(ctx, label, f) pairs, summed by target label."""
    shape = _shape(ctx, what)
    if type(chi) is not shape:
        raise ValueError(
            f"the {ctx.setting.value} setting takes a {shape.__name__}, not a {type(chi).__name__}"
        )
    entries: dict[tuple, Expr] = {}
    for label, f in chi.items():
        for target, expr in rule(ctx, label, f):
            entries[target] = entries.get(target, Expr.zero()) + expr
    return shape(entries)


def correction(ctx: ReductionContext, chi: ChiTuple) -> ChiTuple:
    """The linear correction of the transported derivative: every entry's rule, summed."""
    return _sum_entries(ctx, chi, _correction_entries, "correction")


def reduced_derivative(ctx: ReductionContext, chi: ChiTuple) -> ChiTuple:
    """Componentwise restricted first derivative plus the correction."""
    return _sum_entries(ctx, chi, _derivative_entries, "reduced derivative")


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
    m = ctx.m
    alpha_range = range(2, m + 1)
    d = lambda mu, g: restricted_derivative(ctx, mu, g)
    grad = lambda la, mu: velocity_gradient_entry(ctx, la, mu)
    out: list[tuple[str, Expr]] = []

    for a in alpha_range:
        out.append(
            (
                f"velocity_slaved[{a}]",
                reduce(ctx, chi.chi_alpha.get((0, a), Expr.zero())
                       - 2 * u(1, unit(a, m)) * chi.chi1),
            )
        )
    for (i1, a) in sorted(chi.chi_alpha):
        if i1 >= 1:
            out.append(
                (f"higher_velocity_vanish[{i1},{a}]", reduce(ctx, chi.chi_alpha[(i1, a)]))
            )
    out.append(("pressure_slaved", reduce(ctx, chi.chi0 + d(1, chi.chi1))))
    out.append(("harmonic", reduce(ctx, restricted_laplacian(ctx, chi.chi1))))
    for a in alpha_range:
        cross = expr_sum(
            grad(mu, 1) * d(mu, d(a, chi.chi1)) - grad(mu, a) * d(mu, d(1, chi.chi1))
            for mu in range(1, m + 1)
        )
        out.append((f"compatibility[{a}]", reduce(ctx, cross)))
    out.append(
        (
            "gradient_first",
            reduce(
                ctx,
                d(1, chi.chi01)
                + 2 * expr_sum(d(a, u(a, unit(1, m)) * chi.chi1) for a in alpha_range),
            ),
        )
    )
    div_block = expr_sum(u(b, unit(b, m)) for b in alpha_range)
    for a in alpha_range:
        out.append(
            (
                f"gradient[{a}]",
                reduce(
                    ctx,
                    d(a, chi.chi01)
                    + 2
                    * (
                        expr_sum(grad(mu, a) * d(mu, chi.chi1) for mu in range(1, m + 1))
                        + d(a, div_block * chi.chi1)
                    ),
                ),
            )
        )
    return out


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
        else:
            pressure = shape.pressure_labels(i1)  # indexed by first-direction order
            label = pressure[i1] if i1 < len(pressure) else None
        if label is None:
            raise ValueError("density is not in canonical coordinates")
        entries[label] = entries.get(label, Expr.zero()) + expr
    return shape(entries)


# -- bounded-order kernel search --------------------------------------------


def ansatz_monomials(ctx: ReductionContext, ansatz: AnsatzSpec) -> list[Monomial]:
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

    monomials: list[Monomial] = []

    def extend(prefix: list, start: int, degree_left: int, x_left: int) -> None:
        monomials.append(tuple(prefix))
        for pos in range(start, len(pool)):
            v = pool[pos]
            if degree_left < 1 or (v.kind == "x" and x_left < 1):
                continue
            exponent = 1
            while exponent <= degree_left and (v.kind != "x" or exponent <= x_left):
                prefix.append((v, exponent))
                extend(
                    prefix,
                    pos + 1,
                    degree_left - exponent,
                    x_left - (exponent if v.kind == "x" else 0),
                )
                prefix.pop()
                exponent += 1

    extend([], 0, ansatz.max_degree, ansatz.max_x_degree)
    monomials.sort(key=_monomial_key)
    return monomials


def _unknowns(ctx: ReductionContext, ansatz: AnsatzSpec) -> list[tuple[tuple, Monomial]]:
    """The unknown coefficients as (label, monomial): label-major, then monomial."""
    shape = _shape(ctx, "kernel search")
    monomials = ansatz_monomials(ctx, ansatz)
    labels = shape.ansatz_labels(ctx.m, ansatz.max_order)
    return [(label, mono) for label in labels for mono in monomials]


def _solve_homogeneous(
    ctx: ReductionContext, ansatz: AnsatzSpec, column, max_unknowns: int
) -> list:
    """Nullspace basis of a chi-linear constraint map within the ansatz.

    column(label, f) yields the (slot, expression) pairs the map sends the
    one-entry tuple f at label to; every one must vanish identically.
    Each (slot, monomial) of the outputs is one linear constraint on the
    unknown coefficients, and each unknown fills its column of the rows.
    """
    shape = _shape(ctx, "kernel search")
    unknowns = _unknowns(ctx, ansatz)
    if len(unknowns) > max_unknowns:
        raise AnsatzTooLargeError(len(unknowns), max_unknowns)

    rows: dict[tuple, dict[int, int | Fraction]] = {}
    for col, (label, mono) in enumerate(unknowns):
        for slot, expr in column(label, _raw({mono: 1})):
            for out_mono, coeff in expr._terms.items():
                row = rows.setdefault((slot, out_mono), {})
                row[col] = row.get(col, 0) + coeff

    # the basis does not depend on the order of the rows (see linalg.nullspace)
    vectors = linalg.nullspace(list(rows.values()), len(unknowns))

    basis = []
    for vec in vectors:
        terms: dict[tuple, dict[Monomial, int]] = {}
        for (label, mono), coeff in zip(unknowns, vec):
            if coeff != 0:
                terms.setdefault(label, {})[mono] = coeff
        basis.append(shape({label: _raw(t) for label, t in terms.items()}))
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
    return _solve_homogeneous(
        ctx,
        ansatz,
        lambda label, f: _derivative_entries(ctx, label, f),
        max_unknowns,
    )


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
    return _solve_homogeneous(
        ctx,
        ansatz,
        lambda label, f: reduced_system_residuals(ctx, ChiTupleCPE({label: f})),
        max_unknowns,
    )


def kernel_vectors(ctx: ReductionContext, ansatz: AnsatzSpec, chi) -> tuple[Fraction, ...]:
    """Coordinates of a tuple in the ansatz unknown basis (for span tests).

    Raises if a component involves a monomial outside the ansatz.
    """
    position = {unknown: k for k, unknown in enumerate(_unknowns(ctx, ansatz))}
    vec = [Fraction(0)] * len(position)
    for slot, expr in chi.items():
        for mono, coeff in expr.items():
            key = (slot, mono)
            if key not in position:
                raise ValueError(f"component {slot} uses a monomial outside the ansatz")
            vec[position[key]] = coeff
    return tuple(vec)
