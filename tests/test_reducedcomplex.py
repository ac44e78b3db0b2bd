import copy
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from jetns import linalg, reducedcomplex
from jetns.constraints import (
    ReductionContext,
    Setting,
    reduce,
    restricted_derivative,
    restricted_laplacian,
    velocity_gradient_entry,
)
from jetns.jetalgebra import T_VAR, Expr, _factors, _monomial_key, expr_sum, p, u, x, pvar, uvar, xvar
from jetns.multiindex import indices_up_to, unit
from jetns.reducedcomplex import (
    AnsatzSpec,
    AnsatzTooLargeError,
    correction,
    kernel_search,
    kernel_vectors,
    reduced_derivative,
    reduced_system_kernel,
    reduced_system_residuals,
    reduced_variational_derivative,
    _ansatz_monomials,
    _entries,
    _forced_zero_unknowns,
    _unknowns,
    _writes,
)
from jetns.tuples import ChiTupleCE, ChiTupleCPE, Cotuple
from jetns.variational import helmholtz_residual

from conftest import path_derivatives, random_expr, variable_pool


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
    chi = ChiTupleCE(3, {("chi01",): Expr.const(1)})
    out = correction(ce_ctx, chi)
    assert out.is_zero()


def _spatial_gradient(ctx, shape):
    # chi01 feeds only the order-zero velocity entries, whatever the shape
    out = correction(ctx, shape(ctx.m, {("chi01",): x(2) ** 2}))
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
    out = correction(ctx, shape(ctx.m, {("chi_alpha", 0, 2): Expr.const(5)}))
    assert out.chi_alpha == {(1, 2): Expr.const(5)}
    assert out.items() == [(("chi_alpha", 1, 2), Expr.const(5))]


def test_correction_ce_index_shift(ce_ctx):
    _velocity_index_shift(ce_ctx, ChiTupleCE)
    chi = ChiTupleCE(3, {("chi_p", 0): Expr.const(7)})
    assert correction(ce_ctx, chi).chi_p == {1: Expr.const(7)}


def test_correction_cpe_index_shift(cpe_ctx):
    _velocity_index_shift(cpe_ctx, ChiTupleCPE)


def test_correction_cpe_of_constant_tuple(cpe_ctx):
    assert correction(cpe_ctx, ChiTupleCPE(3, {("chi01",): Expr.const(1)})).is_zero()


def test_correction_cpe_of_unit_chi1(cpe_ctx):
    # expand each displayed term for chi1 = 1 and freeze the results
    out = correction(cpe_ctx, ChiTupleCPE(3, {("chi1",): Expr.const(1)}))
    assert out.chi01 == 2 * (u(2, (1, 1, 0)) + u(3, (1, 0, 1)))
    assert out.chi0.is_zero()
    assert out.chi1.is_zero()
    assert out.chi_alpha[(1, 2)] == -2 * u(1, (0, 1, 0))
    assert out.chi_alpha[(1, 3)] == -2 * u(1, (0, 0, 1))
    # the order-zero entries collect both gradient blocks
    assert out.chi_alpha[(0, 2)] == 4 * (u(2, (0, 2, 0)) + u(3, (0, 1, 1)))
    assert out.chi_alpha[(0, 3)] == 4 * (u(2, (0, 1, 1)) + u(3, (0, 0, 2)))


def test_correction_cpe_chi0_feeds_chi1(cpe_ctx):
    out = correction(cpe_ctx, ChiTupleCPE(3, {("chi0",): Expr.const(3)}))
    assert out.chi1 == Expr.const(3)
    assert out.chi01.is_zero() and not out.chi_alpha and out.chi0.is_zero()


def test_correction_is_linear(cpe_ctx, ce_ctx):
    rng = random.Random(41)
    pool = density_pool(cpe_ctx)
    for _ in range(5):
        a = ChiTupleCPE(3, {
            ("chi01",): random_expr(rng, pool, n_terms=2),
            ("chi_alpha", 0, 2): random_expr(rng, pool, n_terms=2),
            ("chi1",): random_expr(rng, pool, n_terms=2),
        })
        b = ChiTupleCPE(3, {
            ("chi01",): random_expr(rng, pool, n_terms=2),
            ("chi0",): random_expr(rng, pool, n_terms=2),
            ("chi1",): random_expr(rng, pool, n_terms=2),
        })
        combined = ChiTupleCPE(3, {
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
        a = ChiTupleCE(3, {
            ("chi01",): random_expr(rng, pool, n_terms=2),
            ("chi_alpha", 0, 2): random_expr(rng, pool, n_terms=2),
            ("chi_p", 0): random_expr(rng, pool, n_terms=2),
        })
        b = ChiTupleCE(3, {
            ("chi_alpha", 1, 3): random_expr(rng, pool, n_terms=2),
            ("chi_p", 0): random_expr(rng, pool, n_terms=2),
            ("chi_p", 1): random_expr(rng, pool, n_terms=2),
        })
        entries_a, entries_b = dict(a.items()), dict(b.items())
        combined = ChiTupleCE(3, {
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
    assert ChiTupleCPE(3, one) == ChiTupleCPE(3, {("chi01",): Expr.const(1)})
    assert ChiTupleCPE(3, one) != ChiTupleCPE(3, {("chi01",): Expr.const(2)})
    # a zero entry is dropped
    assert ChiTupleCE(3, {("chi01",): Expr.zero(), ("chi_alpha", 0, 2): Expr.zero()}) == ChiTupleCE(3)
    # the entries are kept in canonical order, whatever order they come in
    joint = ChiTupleCPE(3, {("chi1",): x(2), ("chi0",): x(1), ("chi01",): Expr.const(1)})
    assert joint == ChiTupleCPE(3, {("chi01",): Expr.const(1), ("chi0",): x(1), ("chi1",): x(2)})
    assert [label for label, _ in joint.items()] == [("chi01",), ("chi0",), ("chi1",)]
    # a continuity tuple never equals a joint one, not even when both are zero
    assert ChiTupleCE(3, one) != ChiTupleCPE(3, one)
    assert ChiTupleCE(3) != ChiTupleCPE(3)


def test_tuple_rejects_labels_of_the_other_shape(ce_ctx, cpe_ctx):
    with pytest.raises(ValueError):
        ChiTupleCPE(3, {("chi_p", 0): Expr.const(1)})
    with pytest.raises(ValueError):
        ChiTupleCE(3, {("chi1",): Expr.const(1)})
    assert ChiTupleCE(3, {("chi_p", 0): Expr.const(1)}).chi_p == {0: Expr.const(1)}
    # a tuple of the other shape is refused even when its labels exist in both
    entry = {("chi01",): x(2)}
    for ctx, chi in ((cpe_ctx, ChiTupleCE(3, entry)), (ce_ctx, ChiTupleCPE(3, entry))):
        with pytest.raises(ValueError):
            reduced_derivative(ctx, chi)
        with pytest.raises(ValueError):
            correction(ctx, chi)


# -- transported derivative --------------------------------------------------


def test_reduced_derivative_kills_constant_ce(ce_ctx):
    assert reduced_derivative(ce_ctx, ChiTupleCE(3, {("chi01",): Expr.const(1)})).is_zero()


def test_reduced_derivative_kills_constant_cpe(cpe_ctx):
    assert reduced_derivative(cpe_ctx, ChiTupleCPE(3, {("chi01",): Expr.const(1)})).is_zero()


def test_reduced_derivative_of_x1_entry(ce_ctx):
    out = reduced_derivative(ce_ctx, ChiTupleCE(3, {("chi01",): x(1)}))
    assert out.chi01 == Expr.const(1)
    assert not out.chi_alpha and not out.chi_p
    out = reduced_derivative(ce_ctx, ChiTupleCE(3, {("chi01",): x(2)}))
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
    chi = ChiTupleCPE(3, {("chi01",): Expr.const(4)})
    assert all(expr.is_zero() for _, expr in reduced_system_residuals(cpe_ctx, chi))


def test_reduced_system_harmonic_violation(cpe_ctx):
    # chi1 = u1 with the slaved components still fails the harmonic equation
    chi1 = u(1, (0, 0, 0))
    chi = ChiTupleCPE(3, {
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
    chi = ChiTupleCPE(3, {("chi0",): x(1), ("chi1",): x(1)})
    residuals = dict(reduced_system_residuals(cpe_ctx, chi))
    assert residuals["pressure_slaved"] == x(1) + Expr.const(1)


def _system_literal(ctx, chi):
    """The first-order system written on the whole tuple, reduced at the end."""
    m = ctx.m
    alpha_range = range(2, m + 1)
    d = lambda mu, g: restricted_derivative(ctx, mu, g)
    grad = lambda la, mu: velocity_gradient_entry(ctx, la, mu)
    chi_alpha, chi01, chi0, chi1 = chi.chi_alpha, chi.chi01, chi.chi0, chi.chi1
    out = [
        (f"velocity_slaved[{a}]", chi_alpha.get((0, a), Expr.zero()) - 2 * u(1, unit(a, m)) * chi1)
        for a in alpha_range
    ]
    out += [
        (f"higher_velocity_vanish[{i1},{a}]", chi_alpha[i1, a])
        for i1, a in sorted(chi_alpha)
        if i1 >= 1
    ]
    out += [("pressure_slaved", chi0 + d(1, chi1)), ("harmonic", restricted_laplacian(ctx, chi1))]
    for a in alpha_range:
        cross = expr_sum(
            grad(mu, 1) * d(mu, d(a, chi1)) - grad(mu, a) * d(mu, d(1, chi1))
            for mu in range(1, m + 1)
        )
        out.append((f"compatibility[{a}]", cross))
    first = d(1, chi01) + 2 * expr_sum(d(a, u(a, unit(1, m)) * chi1) for a in alpha_range)
    out.append(("gradient_first", first))
    div_block = expr_sum(u(b, unit(b, m)) for b in alpha_range)
    for a in alpha_range:
        transport = expr_sum(grad(mu, a) * d(mu, chi1) for mu in range(1, m + 1))
        out.append((f"gradient[{a}]", d(a, chi01) + 2 * (transport + d(a, div_block * chi1))))
    return [(name, reduce(ctx, expr)) for name, expr in out]


def test_reduced_system_entry_behaviour(cpe_ctx):
    # chi0 and chi_alpha enter undifferentiated and are reduced; chi01 and
    # chi1 are differentiated, which needs canonical coordinates
    non_canonical = p((2, 0, 0))
    residuals = dict(reduced_system_residuals(cpe_ctx, ChiTupleCPE(3, {("chi0",): non_canonical})))
    assert residuals["pressure_slaved"] == reduce(cpe_ctx, non_canonical)
    assert pvar((2, 0, 0)) not in residuals["pressure_slaved"].variables()
    chi = ChiTupleCPE(3, {("chi_alpha", 1, 2): u(1, (1, 0, 0))})
    assert dict(reduced_system_residuals(cpe_ctx, chi))["higher_velocity_vanish[1,2]"] == reduce(
        cpe_ctx, u(1, (1, 0, 0))
    )
    for label in (("chi1",), ("chi01",)):
        with pytest.raises(ValueError, match="not a canonical coordinate"):
            reduced_system_residuals(cpe_ctx, ChiTupleCPE(3, {label: non_canonical}))


def test_reduced_system_rejects_the_continuity_shape(cpe_ctx):
    with pytest.raises(ValueError, match="takes a ChiTupleCPE, not a ChiTupleCE"):
        reduced_system_residuals(cpe_ctx, ChiTupleCE(3, {("chi_p", 0): x(1)}))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_reduced_system_is_the_literal_system(m):
    # the per-entry rule, summed over a tuple, gives the whole-tuple system:
    # the same names in the same order and the same residuals
    ctx = ReductionContext(Setting.CPE, m)
    rng = random.Random(160 + m)
    pool = variable_pool(m, max_u_order=2, max_p_order=1, ctx=ctx, allow_t=True)
    labels = ChiTupleCPE.labels(m, 2)
    without = {1: [("chi1",)], 2: [l for l in labels if l[0] == "chi_alpha"]}
    for trial in range(12):
        chosen = [l for l in labels if rng.random() < 0.5 and l not in without.get(trial % 4, [])]
        chi = ChiTupleCPE(m, {l: random_expr(rng, pool, n_terms=2) for l in chosen})
        assert reduced_system_residuals(ctx, chi) == _system_literal(ctx, chi)


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
    constant = kernel_vectors(cpe_ctx, ansatz, ChiTupleCPE(3, {("chi01",): Expr.const(1)}))
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
    # kernel assembly reads each unknown's column from the "derivative" rows;
    # summed, it must be D_1 of the entry plus the correction, and it must
    # be what reduced_derivative gives for the one-entry tuple
    ctx = ReductionContext(setting, m)
    shape = ChiTupleCE if setting is Setting.CE else ChiTupleCPE
    for label, mono in _unknowns(ctx, ansatz):
        f = Expr({_factors(mono): 1})
        df = path_derivatives(ctx, f)
        column: dict = {}
        for target, expr in _entries(ctx, "derivative", label, f, df):
            column[target] = column.get(target, Expr.zero()) + expr
        column = {k: v for k, v in column.items() if not v.is_zero()}
        chi = shape(m, {label: f})
        expected = dict(correction(ctx, chi).items())
        expected[label] = expected.get(label, Expr.zero()) + restricted_derivative(ctx, 1, f)
        assert column == {k: v for k, v in expected.items() if not v.is_zero()}
        assert column == dict(reduced_derivative(ctx, chi).items())


@pytest.mark.parametrize("m, ansatz", [(3, AnsatzSpec(1, 1, 1)), (2, AnsatzSpec(2, 2, 1))])
def test_system_columns_are_the_literal_system(m, ansatz):
    # reduced_system_kernel reads each unknown's column from the "system" rows;
    # summed, it must be the whole-tuple system of the one-entry tuple
    ctx = ReductionContext(Setting.CPE, m)
    for label, mono in _unknowns(ctx, ansatz):
        f = Expr({_factors(mono): 1})
        df = path_derivatives(ctx, f)
        column: dict = {}
        for name, expr in _entries(ctx, "system", label, f, df):
            column[name] = column.get(name, Expr.zero()) + expr
        literal = dict(_system_literal(ctx, ChiTupleCPE(m, {label: f})))
        assert column.keys() <= literal.keys()
        assert {k: v for k, v in column.items() if not v.is_zero()} == {
            k: v for k, v in literal.items() if not v.is_zero()
        }


def _pinned_unknowns(ctx, ansatz, rule):
    """The (label, monomial) unknowns _forced_zero_unknowns pins."""
    labels, monomials = reducedcomplex._ansatz_axes(ctx, ansatz)
    pins = _forced_zero_unknowns(ctx, ansatz, rule)
    return {(label, monomials[k]) for label, zero in zip(labels, pins) for k in zero}


def _assert_rows_are_the_pinned_literal_matrix(ctx, ansatz, solve, rule, literal_column, monkeypatch):
    """The rows solve hands to nullspace against the full literal matrix.

    The oracle has one row per (slot, monomial) of literal_column(label, f)
    over every unknown and one column per unknown.  The handed rows are
    the oracle's rows on the unpinned columns, renumbered in order; every
    pinned column is a one-entry pivot of the oracle, and the handed
    nullspace, embedded in the unknowns, is the oracle's.  Returns the
    pinned unknowns.
    """
    handed = []
    real = linalg.nullspace
    monkeypatch.setattr(
        linalg, "nullspace", lambda rows, n: handed.append((rows, n)) or real(rows, n)
    )
    solve(ctx, ansatz)
    [(rows, ncols)] = handed
    unknowns = _unknowns(ctx, ansatz)
    literal: dict = {}
    for col, (label, mono) in enumerate(unknowns):
        for slot, expr in literal_column(label, Expr({_factors(mono): 1})):
            for out_mono, coeff in expr.items():
                literal.setdefault((slot, out_mono), {})[col] = coeff
    literal = list(literal.values())
    pinned_unknowns = _pinned_unknowns(ctx, ansatz, rule)
    pinned = {col for col, unknown in enumerate(unknowns) if unknown in pinned_unknowns}
    assert pinned
    kept = [col for col in range(len(unknowns)) if col not in pinned]
    assert ncols == len(kept)
    renumber = {col: k for k, col in enumerate(kept)}
    as_multiset = lambda rows: Counter(
        key for key in (tuple(sorted((c, v) for c, v in row.items() if v != 0)) for row in rows)
        if key
    )
    restricted = ({renumber[c]: v for c, v in row.items() if c not in pinned} for row in literal)
    assert as_multiset(rows) == as_multiset(restricted)
    pivots = linalg.row_reduce(literal)
    assert all(pivots.get(c) == {c: 1} for c in pinned)
    embedded = []
    for vec in real(rows, ncols):
        full = [0] * len(unknowns)
        for k, coeff in enumerate(vec):
            full[kept[k]] = coeff
        embedded.append(tuple(full))
    assert embedded == real(literal, len(unknowns))
    return pinned_unknowns


def _assert_pins_include_the_known_singletons(ctx, ansatz, pinned):
    """ce: every label but chi01.  cpe: chi_alpha of order 1 and up, and chi1
    at every M whose product with some u^1_(a) is outside the ansatz."""
    labels, monomials = reducedcomplex._ansatz_axes(ctx, ansatz)
    if ctx.setting is Setting.CE:
        expected = {(l, mono) for l in labels if l != ("chi01",) for mono in monomials}
    else:
        expected = {(l, mono) for l in labels if l[0] == "chi_alpha" and l[1] >= 1 for mono in monomials}
        for a in range(2, ctx.m + 1):
            for mono in monomials:
                [(product, _)] = (u(1, unit(a, ctx.m)) * Expr({_factors(mono): 1}))._unsorted_items()
                if product not in monomials:
                    expected.add((("chi1",), mono))
    assert expected <= pinned
    # nothing in chi01 is pinned: its every write differentiates
    assert not {unknown for unknown in pinned if unknown[0] == ("chi01",)}


_ROW_CASES = [
    (Setting.CE, 3, AnsatzSpec(1, 1, 1)), (Setting.CPE, 3, AnsatzSpec(1, 1, 1)),
    (Setting.CPE, 2, AnsatzSpec(2, 2, 1)), (Setting.CPE, 3, AnsatzSpec(0, 2, 1)),
    (Setting.CPE, 2, AnsatzSpec(1, 1, 1, include_t=True)),
]


@pytest.mark.parametrize("setting, m, ansatz", _ROW_CASES)
def test_kernel_rows_are_the_literal_matrix(setting, m, ansatz, monkeypatch):
    # the oracle is read off reduced_derivative of every one-entry tuple
    ctx = ReductionContext(setting, m)
    shape = ChiTupleCE if setting is Setting.CE else ChiTupleCPE
    pinned = _assert_rows_are_the_pinned_literal_matrix(
        ctx, ansatz, kernel_search, "derivative",
        lambda label, f: reduced_derivative(ctx, shape(m, {label: f})).items(), monkeypatch,
    )
    _assert_pins_include_the_known_singletons(ctx, ansatz, pinned)
    if setting is Setting.CPE and ansatz.max_order:
        # the pins reach inside labels: chi1 keeps some unknowns and loses others
        # (at order 0 no u^1_(a) is in the ansatz, so chi1 is pinned whole)
        chi1 = {mono for label, mono in pinned if label == ("chi1",)}
        assert 0 < len(chi1) < len(reducedcomplex._ansatz_axes(ctx, ansatz)[1])


@pytest.mark.parametrize("m, ansatz", [(m, a) for s, m, a in _ROW_CASES if s is Setting.CPE])
def test_system_rows_are_the_literal_matrix(m, ansatz, monkeypatch):
    # the oracle is read off the whole-tuple system of every one-entry tuple
    ctx = ReductionContext(Setting.CPE, m)
    pinned = _assert_rows_are_the_pinned_literal_matrix(
        ctx, ansatz, reduced_system_kernel, "system",
        lambda label, f: _system_literal(ctx, ChiTupleCPE(m, {label: f})), monkeypatch,
    )
    _assert_pins_include_the_known_singletons(ctx, ansatz, pinned)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("rule", ["derivative", "system"])
def test_writes_classify_the_multiplications(m, rule):
    # the shifts and higher_velocity_vanish multiply by 1, the chi1 writes
    # into the velocity block by -2 u^1_(a); every other chi1 write, and
    # every label's D_1 f, differentiates
    ctx = ReductionContext(Setting.CPE, m)
    labels = reducedcomplex._ansatz_axes(ctx, AnsatzSpec(2, 0, 0))[0]
    writes = _writes(ctx, labels, rule)
    one = Expr.const(1)
    for a in range(2, m + 1):
        u1a = -2 * u(1, unit(a, m))
        if rule == "derivative":
            for i1 in (0, 1):
                assert writes[("chi_alpha", i1 + 1, a)][("chi_alpha", i1, a)] == one
            assert writes[("chi_alpha", 1, a)][("chi1",)] == u1a
            assert writes[("chi_alpha", 0, a)][("chi1",)] is None
        else:
            for i1 in (1, 2):
                assert writes[f"higher_velocity_vanish[{i1},{a}]"] == {("chi_alpha", i1, a): one}
            assert writes[f"velocity_slaved[{a}]"] == {("chi_alpha", 0, a): one, ("chi1",): u1a}
            assert writes[f"compatibility[{a}]"] == {("chi1",): None}
            assert writes[f"gradient[{a}]"] == {("chi01",): None, ("chi1",): None}
    if rule == "derivative":
        assert writes[("chi1",)] == {("chi0",): one, ("chi1",): None}
        assert writes[("chi01",)] == {("chi01",): None, ("chi1",): None}
        assert writes[("chi0",)] == {("chi0",): None, ("chi1",): None}
        assert all(writes[label][label] is None for label in labels)
    else:
        assert writes["pressure_slaved"] == {("chi0",): one, ("chi1",): None}
        assert writes["gradient_first"] == {("chi01",): None, ("chi1",): None}
        assert writes["harmonic"] == {("chi1",): None}
    ce = ReductionContext(Setting.CE, m)
    ce_writes = _writes(ce, reducedcomplex._ansatz_axes(ce, AnsatzSpec(1, 0, 0))[0], "derivative")
    assert ce_writes[("chi_p", 2)] == {("chi_p", 1): one}


def test_a_derivative_term_in_a_shift_row_shrinks_the_pins(monkeypatch):
    # the presolve reads each label's rows: a shift row that also
    # differentiates no longer multiplies, so the source label is no longer
    # pinned, and what stays pinned is still a pivot of the literal matrix
    ctx = ReductionContext(Setting.CE, 3)
    ansatz = AnsatzSpec(1, 1, 1)
    before = _pinned_unknowns(ctx, ansatz, "derivative")
    source, target = ("chi_alpha", 0, 2), ("chi_alpha", 1, 2)
    real = reducedcomplex._terms

    def terms(ctx, rule, label):
        extra = [(target, Expr.const(1), None, (2,))] if (rule, label) == ("correction", source) else []
        return real(ctx, rule, label) + extra

    monkeypatch.setattr(reducedcomplex, "_terms", terms)
    reducedcomplex._rows.cache_clear()
    _forced_zero_unknowns.cache_clear()
    try:
        assert reduced_derivative(ctx, ChiTupleCE(3, {source: x(2)}))[target] == x(2) + 1
        after = _assert_rows_are_the_pinned_literal_matrix(
            ctx, ansatz, kernel_search, "derivative",
            lambda label, f: reduced_derivative(ctx, ChiTupleCE(3, {label: f})).items(), monkeypatch,
        )
    finally:
        monkeypatch.undo()
        reducedcomplex._rows.cache_clear()
        _forced_zero_unknowns.cache_clear()
    monomials = reducedcomplex._ansatz_axes(ctx, ansatz)[1]
    assert after < before
    assert before - after == {(source, mono) for mono in monomials}


_BENCH = [  # the kernel ansatzes of bench/spec.json, x-degree = degree, with the pins they reach
    (Setting.CE, 2, AnsatzSpec(3, 2, 2), 3024), (Setting.CE, 4, AnsatzSpec(1, 2, 2), 3480),
    (Setting.CPE, 3, AnsatzSpec(1, 2, 2), 893), (Setting.CPE, 2, AnsatzSpec(3, 2, 2), 1452),
    (Setting.CPE, 4, AnsatzSpec(1, 1, 1), 199),
]


@pytest.mark.parametrize("setting, m, ansatz, pins", _BENCH)
def test_bench_ansatzes_pin_exactly(setting, m, ansatz, pins):
    # the system rule reaches the kernel's counts on every cpe ansatz
    ctx = ReductionContext(setting, m)
    for rule in ("derivative", "system") if setting is Setting.CPE else ("derivative",):
        assert len(_pinned_unknowns(ctx, ansatz, rule)) == pins


@pytest.mark.parametrize("m, ansatz, pins", [(m, a, n) for s, m, a, n in _BENCH if s is Setting.CPE])
def test_kernel_search_evaluates_no_pinned_unknown(m, ansatz, pins, monkeypatch):
    # assembly builds one derivative table per monomial with an unpinned
    # unknown (every monomial: chi01 only differentiates, so it is never
    # pinned), applies the rows to the unpinned unknowns alone and hands
    # nullspace the unpinned count
    ctx = ReductionContext(Setting.CPE, m)
    expected = kernel_search(ctx, ansatz)
    pinned = _pinned_unknowns(ctx, ansatz, "derivative")
    assert len(pinned) == pins
    unpinned = set(_unknowns(ctx, ansatz)) - pinned
    tables, evaluated, handed = [], [], []
    real_table, real_entries, real_nullspace = (
        reducedcomplex._derivative_table, reducedcomplex._entries, linalg.nullspace
    )
    monkeypatch.setattr(
        reducedcomplex, "_derivative_table", lambda c, f: tables.append(f) or real_table(c, f)
    )
    monkeypatch.setattr(
        reducedcomplex, "_entries",
        lambda c, rule, label, f, df: evaluated.append((label, f)) or real_entries(c, rule, label, f, df),
    )
    monkeypatch.setattr(linalg, "nullspace", lambda rows, n: handed.append(n) or real_nullspace(rows, n))
    assert kernel_search(ctx, ansatz) == expected
    monos = [mono for f in tables for mono, _ in f._unsorted_items()]
    assert sorted(monos, key=_monomial_key) == sorted({mono for _, mono in unpinned}, key=_monomial_key)
    assert sorted(evaluated, key=repr) == sorted(((l, Expr({_factors(mono): 1})) for l, mono in unpinned), key=repr)
    assert handed == [len(unpinned)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_every_row_writes_a_slot_of_its_rule(m):
    # correction and derivative rows write labels the shape accepts, system
    # rows names reduced_system_residuals prints for the one-entry tuple;
    # every path is None or a sorted path of at most two directions
    directions = set(range(1, m + 1))
    for shape, setting in ((ChiTupleCE, Setting.CE), (ChiTupleCPE, Setting.CPE)):
        ctx = ReductionContext(setting, m)
        for label in shape.labels(m, 2):
            rows = {rule: reducedcomplex._rows(ctx, rule, label) for rule in ("correction", "derivative")}
            if shape is ChiTupleCPE:
                rows["system"] = reducedcomplex._rows(ctx, "system", label)
                chi = ChiTupleCPE(m, {label: Expr.const(1)})
                names = {name for name, _ in reduced_system_residuals(ctx, chi)}
                assert rows["system"] and {target for target, _, _ in rows["system"]} <= names
            for rule in ("correction", "derivative"):
                assert rows[rule]
                for target, _, _ in rows[rule]:
                    shape.check_label(target, m)
            for target, c, path in (row for rule_rows in rows.values() for row in rule_rows):
                assert not (c == 0 or type(c) is Expr and c.is_zero())
                assert path is None or len(path) <= 2 and list(path) == sorted(path) and set(path) <= directions


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
    # the chi1 row is applied through its Leibniz rows; the
    # oracle differentiates each product as written
    ctx = ReductionContext(Setting.CPE, m)
    rng = random.Random(46 + m)
    pool = variable_pool(m, max_u_order=2, max_p_order=1, ctx=ctx, allow_t=True)
    for _ in range(8):
        f = random_expr(rng, pool, n_terms=4)
        expected = _chi1_docstring_rule(ctx, f)
        entries: dict = {}
        df = path_derivatives(ctx, f)
        for target, expr in _entries(ctx, "correction", ("chi1",), f, df):
            entries[target] = entries.get(target, Expr.zero()) + expr
        assert {k: v for k, v in entries.items() if not v.is_zero()} == expected
        assert dict(correction(ctx, ChiTupleCPE(m, {("chi1",): f})).items()) == expected
        expected[("chi1",)] = restricted_derivative(ctx, 1, f)
        assert not expected[("chi1",)].is_zero()
        assert dict(reduced_derivative(ctx, ChiTupleCPE(m, {("chi1",): f})).items()) == expected


def test_kernel_cap_enforced(cpe_ctx):
    with pytest.raises(AnsatzTooLargeError):
        kernel_search(cpe_ctx, AnsatzSpec(0, 0, 0), max_unknowns=0)


def test_ansatz_axes_are_cached_tuples_and_the_cap_comes_first(cpe_ctx, monkeypatch):
    ansatz = AnsatzSpec(1, 1, 1)
    labels, monomials = reducedcomplex._ansatz_axes(cpe_ctx, ansatz)
    assert type(labels) is tuple and type(monomials) is tuple
    assert list(monomials) == _ansatz_monomials(cpe_ctx, ansatz)
    assert reducedcomplex._ansatz_axes(cpe_ctx, AnsatzSpec(1, 1, 1))[1] is monomials
    # an ansatz over the cap is refused before any column is assembled
    monkeypatch.setattr(reducedcomplex, "_derivative_table", lambda *a: pytest.fail("assembled"))
    with pytest.raises(AnsatzTooLargeError):
        kernel_search(cpe_ctx, ansatz, max_unknowns=len(labels) * len(monomials) - 1)


def test_kernel_requires_constrained_setting(free_ctx):
    with pytest.raises(ValueError):
        kernel_search(free_ctx, AnsatzSpec(0, 0, 0))


@pytest.mark.parametrize("setting", [Setting.CE, Setting.FREE])
def test_system_kernel_requires_the_joint_setting(setting):
    # the system rows ask for no setting, so this guard is the only one
    # on the system solve
    with pytest.raises(ValueError, match="^the reduced system lives in the cpe setting$"):
        reduced_system_kernel(ReductionContext(setting, 3), AnsatzSpec(0, 0, 0))


def test_system_solve_differentiates_only_table_entries(monkeypatch):
    # on a warm context every restricted derivative of the system solve is
    # a table entry: D_mu of an ansatz monomial or of one of its first
    # derivatives, never of a product of a coordinate and the monomial
    ctx = ReductionContext(Setting.CPE, 3)
    ansatz = AnsatzSpec(1, 1, 1)
    reduced_system_kernel(ctx, ansatz)
    seen = []
    real = reducedcomplex.restricted_derivative
    monkeypatch.setattr(
        reducedcomplex, "restricted_derivative", lambda c, mu, g: seen.append(g) or real(c, mu, g)
    )
    reduced_system_kernel(ctx, ansatz)
    allowed = set()
    for mono in _ansatz_monomials(ctx, ansatz):
        f = Expr({_factors(mono): 1})
        allowed |= {f} | {restricted_derivative(ctx, mu, f) for mu in (1, 2, 3)}
    assert seen and [g for g in seen if g not in allowed] == []


def test_kernel_helmholtz_report(cpe_ctx):
    # the found kernel elements can be screened by the variationality test;
    # the constant tuple passes it trivially
    basis = kernel_search(cpe_ctx, AnsatzSpec(0, 0, 0))
    chi = basis[0]
    cot = Cotuple(3, {("u", 1): chi.chi01, ("p",): chi.chi0})
    assert helmholtz_residual(cot).is_zero()


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


def test_nullspace_of_a_system_that_peels_completely():
    # {2} is a singleton; peeling 2 leaves {0}, peeling 0 leaves {4}: every
    # pivot is a unit row, and each basis vector is a free column's unit vector
    rows = [{2: 4}, {0: -3, 2: 1}, {0: 2, 2: 5, 4: 1}]
    pivots = linalg.row_reduce(rows)
    assert pivots == {0: {0: 1}, 2: {2: 1}, 4: {4: 1}}
    basis = linalg.nullspace(rows, 5)
    assert basis == [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)]
    dense = [tuple(Fraction(row.get(c, 0)) for c in range(5)) for row in rows]
    assert basis == _gauss_jordan_nullspace(dense, 5)[0]


def test_nullspace_with_a_one_entry_pivot_left_by_elimination():
    # no row is a singleton, so nothing peels; elimination turns the second
    # row into the one-entry pivot {1: 1}, which forces x1 = 0.  Free column
    # 3 still back-solves through the longer pivot row at column 0.
    rows = [{0: 1, 1: 1, 3: 1}, {0: 1, 1: -1, 3: 1}]
    pivots = linalg.row_reduce(rows)
    assert pivots == {0: {0: 1, 1: 1, 3: 1}, 1: {1: 1}}
    basis = linalg.nullspace(rows, 4)
    assert basis == [(0, 0, 1, 0), (-1, 0, 0, 1)]
    dense = [tuple(Fraction(row.get(c, 0)) for c in range(4)) for row in rows]
    assert basis == _gauss_jordan_nullspace(dense, 4)[0]


def test_nullspace_calls_row_reduce_once_through_the_module(monkeypatch):
    # the bench tracer reads the rank and the row_reduce span from this call
    calls = []
    real = linalg.row_reduce
    monkeypatch.setattr(linalg, "row_reduce", lambda rows: calls.append(rows) or real(rows))
    rows = [{0: 1, 1: 1, 3: 1}, {0: 1, 1: -1, 3: 1}, {2: 5}]
    assert linalg.nullspace(rows, 4) == [(-1, 0, 0, 1)]
    assert len(calls) == 1 and calls[0] is rows


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
            found = _ansatz_monomials(ctx, AnsatzSpec(max_order, degree, x_degree, include_t))
            found_pairs = {_factors(mono) for mono in found}
            assert len(found) == len(expected) and found_pairs == expected, (degree, x_degree)
    assert found == sorted(found, key=_monomial_key)
