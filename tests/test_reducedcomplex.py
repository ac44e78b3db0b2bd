import copy
import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from jetns import linalg
from jetns.constraints import ReductionContext, Setting, reduce, restricted_derivative
from jetns.jetalgebra import T_VAR, Expr, _monomial_key, expr_sum, p, u, x, pvar, uvar, xvar
from jetns.multiindex import indices_up_to, unit
from jetns.reducedcomplex import (
    AnsatzSpec,
    AnsatzTooLargeError,
    ChiTupleCE,
    ChiTupleCPE,
    ansatz_monomials,
    correction,
    kernel_search,
    kernel_vectors,
    reduced_derivative,
    reduced_system_kernel,
    reduced_system_residuals,
    reduced_variational_derivative,
    _correction_entries,
    _derivative_entries,
    _unknowns,
)

from jetns.variational import helmholtz_residual, Cotuple

from conftest import random_expr, variable_pool


def density_pool(ctx, max_ord=1):
    pool = [xvar(k) for k in range(1, 4)]
    for i in indices_up_to(3, max_ord):
        if i.first == 0:
            pool.append(uvar(1, i))
        pool.append(uvar(2, i))
        pool.append(uvar(3, i))
        if ctx.setting is Setting.CE or i.first <= 1:
            pool.append(pvar(i))
    return pool


# -- correction term --------------------------------------------------------


def test_correction_ce_kills_constants(ce_ctx):
    chi = ChiTupleCE({("chi01",): Expr.const(1)})
    out = correction(ce_ctx, chi)
    assert out.is_zero()


def _spatial_gradient(ctx, shape):
    # chi01 feeds only the order-zero velocity entries, whatever the shape
    out = correction(ctx, shape({("chi01",): x(2) ** 2}))
    assert out.chi01.is_zero()
    assert out.chi_alpha[(0, 2)] == 2 * x(2)
    assert (0, 3) not in out.chi_alpha
    assert out.items() == [(("chi_alpha", 0, 2), 2 * x(2))]
    return out


def test_correction_ce_spatial_gradient(ce_ctx):
    out = _spatial_gradient(ce_ctx, ChiTupleCE)
    assert not out.chi_p


def test_correction_cpe_spatial_gradient(cpe_ctx):
    out = _spatial_gradient(cpe_ctx, ChiTupleCPE)
    assert out.chi0.is_zero() and out.chi1.is_zero()


def _velocity_index_shift(ctx, shape):
    out = correction(ctx, shape({("chi_alpha", 0, 2): Expr.const(5)}))
    assert out.chi_alpha == {(1, 2): Expr.const(5)}
    assert out.items() == [(("chi_alpha", 1, 2), Expr.const(5))]


def test_correction_ce_index_shift(ce_ctx):
    _velocity_index_shift(ce_ctx, ChiTupleCE)
    chi = ChiTupleCE({("chi_p", 0): Expr.const(7)})
    assert correction(ce_ctx, chi).chi_p == {1: Expr.const(7)}


def test_correction_cpe_index_shift(cpe_ctx):
    _velocity_index_shift(cpe_ctx, ChiTupleCPE)


def test_correction_cpe_of_constant_tuple(cpe_ctx):
    assert correction(cpe_ctx, ChiTupleCPE({("chi01",): Expr.const(1)})).is_zero()


def test_correction_cpe_of_unit_chi1(cpe_ctx):
    # expand each displayed term for chi1 = 1 and freeze the results
    out = correction(cpe_ctx, ChiTupleCPE({("chi1",): Expr.const(1)}))
    assert out.chi01 == 2 * (u(2, (1, 1, 0)) + u(3, (1, 0, 1)))
    assert out.chi0.is_zero()
    assert out.chi1.is_zero()
    assert out.chi_alpha[(1, 2)] == -2 * u(1, (0, 1, 0))
    assert out.chi_alpha[(1, 3)] == -2 * u(1, (0, 0, 1))
    # the order-zero entries collect both gradient blocks
    assert out.chi_alpha[(0, 2)] == 4 * (u(2, (0, 2, 0)) + u(3, (0, 1, 1)))
    assert out.chi_alpha[(0, 3)] == 4 * (u(2, (0, 1, 1)) + u(3, (0, 0, 2)))


def test_correction_cpe_chi0_feeds_chi1(cpe_ctx):
    out = correction(cpe_ctx, ChiTupleCPE({("chi0",): Expr.const(3)}))
    assert out.chi1 == Expr.const(3)
    assert out.chi01.is_zero() and not out.chi_alpha and out.chi0.is_zero()


def test_correction_is_linear(cpe_ctx, ce_ctx):
    rng = random.Random(41)
    pool = density_pool(cpe_ctx)
    for _ in range(5):
        a = ChiTupleCPE({
            ("chi01",): random_expr(rng, pool, n_terms=2),
            ("chi_alpha", 0, 2): random_expr(rng, pool, n_terms=2),
            ("chi1",): random_expr(rng, pool, n_terms=2),
        })
        b = ChiTupleCPE({
            ("chi01",): random_expr(rng, pool, n_terms=2),
            ("chi0",): random_expr(rng, pool, n_terms=2),
            ("chi1",): random_expr(rng, pool, n_terms=2),
        })
        combined = ChiTupleCPE({
            ("chi01",): 2 * a.chi01 + 3 * b.chi01,
            ("chi_alpha", 0, 2): 2 * a.chi_alpha.get((0, 2), Expr.zero()),
            ("chi0",): 3 * b.chi0,
            ("chi1",): 2 * a.chi1 + 3 * b.chi1,
        })
        out_a = correction(cpe_ctx, a)
        out_b = correction(cpe_ctx, b)
        out = correction(cpe_ctx, combined)
        keys = set(out.chi_alpha) | set(out_a.chi_alpha) | set(out_b.chi_alpha)
        assert out.chi01 == 2 * out_a.chi01 + 3 * out_b.chi01
        for k in keys:
            assert out.chi_alpha.get(k, Expr.zero()) == 2 * out_a.chi_alpha.get(
                k, Expr.zero()
            ) + 3 * out_b.chi_alpha.get(k, Expr.zero())
        assert out.chi0 == 2 * out_a.chi0 + 3 * out_b.chi0
        assert out.chi1 == 2 * out_a.chi1 + 3 * out_b.chi1

    pool = density_pool(ce_ctx)
    for _ in range(5):
        a = ChiTupleCE({
            ("chi01",): random_expr(rng, pool, n_terms=2),
            ("chi_alpha", 0, 2): random_expr(rng, pool, n_terms=2),
            ("chi_p", 0): random_expr(rng, pool, n_terms=2),
        })
        b = ChiTupleCE({
            ("chi_alpha", 1, 3): random_expr(rng, pool, n_terms=2),
            ("chi_p", 0): random_expr(rng, pool, n_terms=2),
            ("chi_p", 1): random_expr(rng, pool, n_terms=2),
        })
        entries_a, entries_b = dict(a.items()), dict(b.items())
        combined = ChiTupleCE({
            k: 2 * entries_a.get(k, Expr.zero()) + 3 * entries_b.get(k, Expr.zero())
            for k in set(entries_a) | set(entries_b)
        })
        out_a = dict(correction(ce_ctx, a).items())
        out_b = dict(correction(ce_ctx, b).items())
        out = dict(correction(ce_ctx, combined).items())
        assert any(label[0] == "chi_p" for label in out)
        for k in set(out) | set(out_a) | set(out_b):
            assert out.get(k, Expr.zero()) == 2 * out_a.get(k, Expr.zero()) + 3 * out_b.get(
                k, Expr.zero()
            )


def test_tuple_value_equality():
    one = {("chi01",): Expr.const(1)}
    assert ChiTupleCPE(one) == ChiTupleCPE({("chi01",): Expr.const(1)})
    assert ChiTupleCPE(one) != ChiTupleCPE({("chi01",): Expr.const(2)})
    # a zero entry is dropped
    assert ChiTupleCE({("chi01",): Expr.zero(), ("chi_alpha", 0, 2): Expr.zero()}) == ChiTupleCE()
    # the entries are kept in canonical order, whatever order they come in
    joint = ChiTupleCPE({("chi1",): x(2), ("chi0",): x(1), ("chi01",): Expr.const(1)})
    assert joint == ChiTupleCPE({("chi01",): Expr.const(1), ("chi0",): x(1), ("chi1",): x(2)})
    assert [label for label, _ in joint.items()] == [("chi01",), ("chi0",), ("chi1",)]
    # a continuity tuple never equals a joint one, not even when both are zero
    assert ChiTupleCE(one) != ChiTupleCPE(one)
    assert ChiTupleCE() != ChiTupleCPE()


def test_tuple_rejects_labels_of_the_other_shape(ce_ctx, cpe_ctx):
    with pytest.raises(ValueError):
        ChiTupleCPE({("chi_p", 0): Expr.const(1)})
    with pytest.raises(ValueError):
        ChiTupleCE({("chi1",): Expr.const(1)})
    assert ChiTupleCE({("chi_p", 0): Expr.const(1)}).chi_p == {0: Expr.const(1)}
    # a tuple of the other shape is refused even when its labels exist in both
    entry = {("chi01",): x(2)}
    for ctx, chi in ((cpe_ctx, ChiTupleCE(entry)), (ce_ctx, ChiTupleCPE(entry))):
        with pytest.raises(ValueError):
            reduced_derivative(ctx, chi)
        with pytest.raises(ValueError):
            correction(ctx, chi)


# -- transported derivative --------------------------------------------------


def test_reduced_derivative_kills_constant_ce(ce_ctx):
    assert reduced_derivative(ce_ctx, ChiTupleCE({("chi01",): Expr.const(1)})).is_zero()


def test_reduced_derivative_kills_constant_cpe(cpe_ctx):
    assert reduced_derivative(cpe_ctx, ChiTupleCPE({("chi01",): Expr.const(1)})).is_zero()


def test_reduced_derivative_of_x1_entry(ce_ctx):
    out = reduced_derivative(ce_ctx, ChiTupleCE({("chi01",): x(1)}))
    assert out.chi01 == Expr.const(1)
    assert not out.chi_alpha and not out.chi_p
    out = reduced_derivative(ce_ctx, ChiTupleCE({("chi01",): x(2)}))
    assert out.chi01.is_zero()
    assert out.chi_alpha == {(0, 2): Expr.const(1)}


# -- commutation with the variational derivative -----------------------------


def chi_difference_is_zero(ctx, a, b):
    if isinstance(a, ChiTupleCE):
        keys = set(a.chi_alpha) | set(b.chi_alpha)
        p_keys = set(a.chi_p) | set(b.chi_p)
        return (
            reduce(ctx, a.chi01 - b.chi01).is_zero()
            and all(
                reduce(ctx, a.chi_alpha.get(k, Expr.zero()) - b.chi_alpha.get(k, Expr.zero())).is_zero()
                for k in keys
            )
            and all(
                reduce(ctx, a.chi_p.get(k, Expr.zero()) - b.chi_p.get(k, Expr.zero())).is_zero()
                for k in p_keys
            )
        )
    keys = set(a.chi_alpha) | set(b.chi_alpha)
    return (
        reduce(ctx, a.chi01 - b.chi01).is_zero()
        and all(
            reduce(ctx, a.chi_alpha.get(k, Expr.zero()) - b.chi_alpha.get(k, Expr.zero())).is_zero()
            for k in keys
        )
        and reduce(ctx, a.chi0 - b.chi0).is_zero()
        and reduce(ctx, a.chi1 - b.chi1).is_zero()
    )


@pytest.mark.parametrize("setting", [Setting.CE, Setting.CPE])
def test_variational_derivative_commutes_with_transport(setting):
    ctx = ReductionContext(setting, 3)
    rng = random.Random(43)
    pool = density_pool(ctx)
    for _ in range(10):
        L = random_expr(rng, pool, n_terms=3)
        lhs = reduced_variational_derivative(ctx, restricted_derivative(ctx, 1, L))
        rhs = reduced_derivative(ctx, reduced_variational_derivative(ctx, L))
        assert chi_difference_is_zero(ctx, lhs, rhs)


def test_variational_derivative_slots(ce_ctx):
    # grouping by residual first-direction order: one spatial integration
    # by parts for the u1 jet, none for the u2 jet, and the pressure term
    # dies because its coefficient is independent of the third coordinate
    L = u(1, (0, 1, 0)) * u(2, (2, 0, 0)) + p((1, 0, 1)) * x(2)
    out = reduced_variational_derivative(ce_ctx, L)
    assert out.chi01 == -u(2, (2, 1, 0))
    assert out.chi_alpha[(2, 2)] == u(1, (0, 1, 0))
    assert not out.chi_p


def test_variational_derivative_pressure_slot(ce_ctx):
    L = p((1, 0, 1)) * x(3)
    out = reduced_variational_derivative(ce_ctx, L)
    # one spatial integration by parts of x3 gives -1
    assert out.chi_p == {1: Expr.const(-1)}


# -- the first-order reduced system ------------------------------------------


def test_reduced_system_constant_solution(cpe_ctx):
    chi = ChiTupleCPE({("chi01",): Expr.const(4)})
    assert all(expr.is_zero() for _, expr in reduced_system_residuals(cpe_ctx, chi))


def test_reduced_system_harmonic_violation(cpe_ctx):
    # chi1 = u1 with the slaved components still fails the harmonic equation
    chi1 = u(1, (0, 0, 0))
    chi = ChiTupleCPE({
        ("chi_alpha", 0, 2): 2 * u(1, (0, 1, 0)) * chi1,
        ("chi_alpha", 0, 3): 2 * u(1, (0, 0, 1)) * chi1,
        ("chi0",): -restricted_derivative(cpe_ctx, 1, chi1),
        ("chi1",): chi1,
    })
    residuals = dict(reduced_system_residuals(cpe_ctx, chi))
    assert residuals["velocity_slaved[2]"].is_zero()
    assert residuals["pressure_slaved"].is_zero()
    from jetns.constraints import restricted_laplacian

    assert residuals["harmonic"] == reduce(cpe_ctx, restricted_laplacian(cpe_ctx, chi1))
    assert not residuals["harmonic"].is_zero()


def test_reduced_system_pressure_relation_witness(cpe_ctx):
    chi = ChiTupleCPE({("chi0",): x(1), ("chi1",): x(1)})
    residuals = dict(reduced_system_residuals(cpe_ctx, chi))
    assert residuals["pressure_slaved"] == x(1) + Expr.const(1)


# -- kernel search ------------------------------------------------------------


def test_kernel_ce_constants_only(ce_ctx):
    basis = kernel_search(ce_ctx, AnsatzSpec(0, 0, 0))
    assert len(basis) == 1
    assert basis[0].chi01 == Expr.const(1)
    assert not basis[0].chi_alpha and not basis[0].chi_p


def test_kernel_ce_order_one_still_one_dimensional(ce_ctx):
    basis = kernel_search(ce_ctx, AnsatzSpec(1, 1, 1))
    assert len(basis) == 1
    assert basis[0].chi01.constant_value() is not None
    assert not basis[0].chi_alpha and not basis[0].chi_p


def test_kernel_cpe_contains_constant(cpe_ctx):
    ansatz = AnsatzSpec(0, 0, 0)
    basis = kernel_search(cpe_ctx, ansatz)
    vectors = [kernel_vectors(cpe_ctx, ansatz, chi) for chi in basis]
    constant = kernel_vectors(cpe_ctx, ansatz, ChiTupleCPE({("chi01",): Expr.const(1)}))
    assert linalg.in_span(vectors, constant)


def test_kernel_cpe_order_one_matches_reduced_system(cpe_ctx):
    ansatz = AnsatzSpec(1, 1, 1)
    kernel = kernel_search(cpe_ctx, ansatz)
    system = reduced_system_kernel(cpe_ctx, ansatz)
    kv = [kernel_vectors(cpe_ctx, ansatz, chi) for chi in kernel]
    sv = [kernel_vectors(cpe_ctx, ansatz, chi) for chi in system]
    assert linalg.same_span(kv, sv)
    for chi in kernel:
        assert all(expr.is_zero() for _, expr in reduced_system_residuals(cpe_ctx, chi))
    # the pressure-constraint class shows up beside the constants
    assert len(kernel) == 2


def test_kernel_elements_map_to_zero(cpe_ctx, ce_ctx):
    for ctx, ansatz in ((ce_ctx, AnsatzSpec(1, 1, 0)), (cpe_ctx, AnsatzSpec(1, 1, 0))):
        for chi in kernel_search(ctx, ansatz):
            assert reduced_derivative(ctx, chi).is_zero()


def test_kernel_dimension_two():
    ce2 = ReductionContext(Setting.CE, 2)
    cpe2 = ReductionContext(Setting.CPE, 2)
    ansatz = AnsatzSpec(1, 1, 1)
    basis = kernel_search(ce2, ansatz)
    assert len(basis) == 1 and basis[0].chi01.constant_value() is not None
    kernel = kernel_search(cpe2, ansatz)
    system = reduced_system_kernel(cpe2, ansatz)
    kv = [kernel_vectors(cpe2, ansatz, chi) for chi in kernel]
    sv = [kernel_vectors(cpe2, ansatz, chi) for chi in system]
    assert linalg.same_span(kv, sv)


@pytest.mark.parametrize(
    "setting, m, ansatz",
    [(Setting.CE, 3, AnsatzSpec(1, 1, 1)), (Setting.CPE, 3, AnsatzSpec(1, 1, 1)),
     (Setting.CPE, 2, AnsatzSpec(2, 2, 1))],
)
def test_kernel_columns_are_the_transported_derivative(setting, m, ansatz):
    # kernel assembly reads each unknown's column from _derivative_entries;
    # summed, it must be D_1 of the entry plus the correction, and it must
    # be what reduced_derivative gives for the one-entry tuple
    ctx = ReductionContext(setting, m)
    shape = ChiTupleCE if setting is Setting.CE else ChiTupleCPE
    for label, mono in _unknowns(ctx, ansatz):
        f = Expr({mono: 1})
        df = lambda mu: restricted_derivative(ctx, mu, f)
        column: dict = {}
        for target, expr in _derivative_entries(ctx, label, f, df):
            column[target] = column.get(target, Expr.zero()) + expr
        column = {k: v for k, v in column.items() if not v.is_zero()}
        chi = shape({label: f})
        expected = dict(correction(ctx, chi).items())
        expected[label] = expected.get(label, Expr.zero()) + restricted_derivative(ctx, 1, f)
        assert column == {k: v for k, v in expected.items() if not v.is_zero()}
        assert column == dict(reduced_derivative(ctx, chi).items())


def _chi1_docstring_rule(ctx, f):
    """The chi1 row of the reducedcomplex docstring, term by term, from restricted_derivative."""
    m = ctx.m
    d = lambda a, g: restricted_derivative(ctx, a, g)
    alphas = range(2, m + 1)
    div = expr_sum(u(b, unit(b, m)) for b in alphas)
    rule = {("chi01",): 2 * expr_sum(d(a, u(a, unit(1, m)) * f) for a in alphas)}
    for a in alphas:
        rule[("chi_alpha", 0, a)] = 2 * d(a, div * f) + 2 * expr_sum(
            d(b, u(b, unit(a, m)) * f) for b in alphas
        )
        rule[("chi_alpha", 1, a)] = -2 * u(1, unit(a, m)) * f
    rule[("chi0",)] = -expr_sum(d(a, d(a, f)) for a in alphas)
    return {k: v for k, v in rule.items() if not v.is_zero()}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_chi1_correction_is_the_docstring_rule(m):
    # the chi1 row is assembled through Leibniz from per-context
    # coefficients; the oracle differentiates each product as written
    ctx = ReductionContext(Setting.CPE, m)
    rng = random.Random(46 + m)
    pool = variable_pool(m, max_u_order=2, max_p_order=1, ctx=ctx, allow_t=True)
    for _ in range(8):
        f = random_expr(rng, pool, n_terms=4)
        expected = _chi1_docstring_rule(ctx, f)
        entries: dict = {}
        df = lambda mu: restricted_derivative(ctx, mu, f)
        for target, expr in _correction_entries(ctx, ("chi1",), f, df):
            entries[target] = entries.get(target, Expr.zero()) + expr
        assert {k: v for k, v in entries.items() if not v.is_zero()} == expected
        assert dict(correction(ctx, ChiTupleCPE({("chi1",): f})).items()) == expected
        expected[("chi1",)] = restricted_derivative(ctx, 1, f)
        assert not expected[("chi1",)].is_zero()
        assert dict(reduced_derivative(ctx, ChiTupleCPE({("chi1",): f})).items()) == expected


def test_kernel_cap_enforced(cpe_ctx):
    with pytest.raises(AnsatzTooLargeError):
        kernel_search(cpe_ctx, AnsatzSpec(0, 0, 0), max_unknowns=0)


def test_kernel_requires_constrained_setting(free_ctx):
    with pytest.raises(ValueError):
        kernel_search(free_ctx, AnsatzSpec(0, 0, 0))


def test_kernel_helmholtz_report(cpe_ctx):
    # the found kernel elements can be screened by the variationality test;
    # the constant tuple passes it trivially
    basis = kernel_search(cpe_ctx, AnsatzSpec(0, 0, 0))
    chi = basis[0]
    cot = Cotuple((chi.chi01, Expr.zero(), Expr.zero()), chi.chi0)
    assert helmholtz_residual(cot, 3).is_zero()


# -- exact linear algebra -----------------------------------------------------


def test_nullspace_known_system():
    # x + y - z = 0, y + z = 0  ->  span{(2, -1, 1)}
    rows = [
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(-1)},
        {1: Fraction(1), 2: Fraction(1)},
    ]
    basis = linalg.nullspace(rows, 3)
    assert basis == [(Fraction(2), Fraction(-1), Fraction(1))]


def _gauss_jordan_nullspace(dense, ncols):
    """Reference basis from a dense Fraction Gauss-Jordan elimination."""
    mat = [list(row) for row in dense]
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        found = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if found is None:
            continue
        mat[r], mat[found] = mat[found], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c] != 0:
                mat[i] = [a - row[c] * b for a, b in zip(row, mat[r])]
        pivot_cols.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, c in zip(mat, pivot_cols):
            vec[c] = -row[free]
        scale = lcm(*(v.denominator for v in vec))
        ints = [int(v * scale) for v in vec]
        basis.append(tuple(Fraction(n, gcd(*ints)) for n in ints))
    return basis, len(pivot_cols)


def _peeling_system(rng, ncols):
    """A singleton chain, a duplicate singleton, rows peeled to nothing, and survivors."""

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    cols = rng.sample(range(ncols), ncols)
    chain = cols[: rng.randint(1, ncols - 1)]
    # the last chain column is a singleton; each earlier one becomes a
    # singleton only once the column after it is peeled
    rows = [{chain[-1]: coeff()}, {chain[-1]: coeff()}]
    rows += [{a: coeff(), b: coeff()} for a, b in zip(chain, chain[1:])]
    # rows on chain columns alone peel down to nothing
    rows += [{c: coeff() for c in rng.sample(chain, rng.randint(1, len(chain)))} for _ in range(2)]
    # rows across all columns keep live entries after the chain is peeled
    rows += [{c: coeff() for c in rng.sample(cols, rng.randint(2, ncols))} for _ in range(rng.randint(1, 3))]
    for row in rng.sample(rows, 2):
        row.setdefault(rng.randrange(ncols), Fraction(0))  # an explicit zero is no entry
    rng.shuffle(rows)
    return rows


def _check_nullspace(rows, ncols, trial):
    """The basis equals dense Gauss-Jordan in any row order; returns the rank."""
    dense = [tuple(row.get(c, Fraction(0)) for c in range(ncols)) for row in rows]
    expected, rank = _gauss_jordan_nullspace(dense, ncols)
    before = copy.deepcopy(rows)
    basis = linalg.nullspace(rows, ncols)
    assert basis == expected
    assert rows == before
    # the basis does not depend on the order of the rows; a second
    # generator shuffles, so the systems drawn stay the same
    shuffled = rows[:]
    random.Random(trial).shuffle(shuffled)
    assert linalg.nullspace(shuffled, ncols) == expected
    for vec in basis:
        for row in rows:
            assert sum((v * vec[c] for c, v in row.items()), Fraction(0)) == 0
    return rank


def test_nullspace_matches_naive_gauss():
    rng = random.Random(44)
    deficient = 0
    for trial in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [
            {
                c: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for c in range(ncols)
                if rng.random() < 0.7
            }
            for _ in range(nrows)
        ]
        if trial % 2:
            # every row a combination of fewer than min(nrows, ncols) rows
            base = rows[: rng.randint(0, min(nrows, ncols) - 1)]
            weights = [[rng.randint(-2, 2) for _ in base] for _ in range(nrows)]
            rows = [
                {c: sum((k * r.get(c, 0) for k, r in zip(ks, base)), Fraction(0)) for c in range(ncols)}
                for ks in weights
            ]
        rows = [{c: v for c, v in row.items() if v != 0} for row in rows]
        rank = _check_nullspace(rows, ncols, trial)
        deficient += rank < min(nrows, ncols)
    assert deficient >= 30
    rng = random.Random(45)
    free = 0
    for trial in range(60):
        ncols = rng.randint(2, 9)
        rows = _peeling_system(rng, ncols)
        free += ncols - _check_nullspace(rows, ncols, trial)
    assert free >= 60


def test_rank_and_span_helpers():
    a = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    b = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]
    assert linalg.rank(a) == 2
    assert linalg.same_span(a, b)
    assert linalg.in_span(a, (Fraction(3), Fraction(5)))
    assert not linalg.same_span(a[:1], b)
    # rank passes dense vectors, explicit zeros included; only nonzero
    # entries make a row a singleton
    assert linalg.rank([(1, 0, 0), (0, 0, 0), (2, 0, 0)]) == 1
    assert linalg.rank([(0, 0, 0)]) == 0
    assert linalg.rank([(0,), (Fraction(0),)]) == 0
    assert linalg.rank([(1, 1, 0), (0, 1, 1), (0, 0, 1)]) == 3
    mixed = [(0, 3, 0, 0), (1, 1, 1, 0), (0, 0, 0, Fraction(5, 2)), (2, 2, 2, 5)]
    assert linalg.rank(mixed) == 3
    assert linalg.in_span(mixed, (1, 0, 1, 0))
    assert not linalg.in_span(mixed, (1, 0, 0, 0))
    assert linalg.same_span(mixed, [(1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    assert not linalg.same_span(mixed, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])


def _brute_force_monomials(pool, max_degree):
    """Every monomial of degree <= max_degree over pool, keyed by (degree, x-degree).

    Exponent vectors come from itertools.product on each support of at
    most max_degree variables; those above the degree bound are dropped.
    """
    found = {}
    for k in range(max_degree + 1):
        for support in itertools.combinations(pool, k):
            for exponents in itertools.product(range(1, max_degree + 1), repeat=k):
                if sum(exponents) <= max_degree:
                    mono = tuple(zip(support, exponents))
                    degrees = (sum(exponents), sum(e for v, e in mono if v.kind == "x"))
                    found.setdefault(degrees, set()).add(mono)
    return found


@pytest.mark.parametrize("setting", [Setting.CE, Setting.CPE])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("max_order", [0, 1, 2])
@pytest.mark.parametrize("include_t", [False, True])
def test_ansatz_monomials_match_brute_force(setting, m, max_order, include_t):
    ctx = ReductionContext(setting, m)
    pool = [xvar(mu) for mu in range(1, m + 1)] + [T_VAR] * include_t
    for i in indices_up_to(m, max_order):
        jets = [uvar(a, i) for a in range(1, m + 1)] + [pvar(i)]
        pool += [v for v in jets if ctx.image(v) is None]
    pool.sort(key=lambda v: v.sort_key())
    by_degrees = _brute_force_monomials(pool, 3)
    for degree in range(4):
        for x_degree in range(degree + 2):
            expected = set().union(
                *(monos for (d, xd), monos in by_degrees.items() if d <= degree and xd <= x_degree)
            )
            found = ansatz_monomials(ctx, AnsatzSpec(max_order, degree, x_degree, include_t))
            assert len(found) == len(expected) and set(found) == expected, (degree, x_degree)
    assert found == sorted(found, key=_monomial_key)
