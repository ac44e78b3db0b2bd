import random
from functools import partial

import pytest

from jetns.constraints import (
    ReductionContext,
    Setting,
    restricted_derivative,
    restricted_derivative_multi,
)
from jetns.jetalgebra import Expr, expr_sum, p, u, uvar, x
from jetns.multiindex import MAX_ORDER, MultiIndex, sub_indices, unit, zero
from jetns import totalderiv
from jetns.totalderiv import (
    derivatives,
    laplacian,
    laplacian_primed,
    total_derivative,
    total_derivative_multi,
)

from conftest import random_expr, variable_pool


def test_coordinate_derivative():
    assert total_derivative(1, x(1)) == Expr.const(1)
    assert total_derivative(1, x(2)).is_zero()


def test_jet_shift():
    assert total_derivative(2, u(3, (0, 0, 0))) == u(3, (0, 1, 0))
    assert total_derivative(1, p((0, 1, 0))) == p((1, 1, 0))


def test_leibniz():
    f = u(1, (0, 0, 0)) * p((0, 0, 0))
    expected = u(1, (1, 0, 0)) * p((0, 0, 0)) + u(1, (0, 0, 0)) * p((1, 0, 0))
    assert total_derivative(1, f) == expected


def test_multi_identity_and_shift():
    f = u(1, (0, 0, 0)) * x(2)
    assert total_derivative_multi(zero(3), f) == f
    assert total_derivative_multi(MultiIndex((1, 1, 0)), u(1, (0, 0, 0))) == u(1, (1, 1, 0))


def test_multi_derivative_of_quadratic_source_matches_binomial_expansion():
    # D_i(u^la_(mu) u^mu_(la)) as the binomial-weighted sum over index splits
    m = 3
    source = expr_sum(
        u(la, unit(mu, m)) * u(mu, unit(la, m))
        for la in range(1, m + 1)
        for mu in range(1, m + 1)
    )
    for i in (MultiIndex((1, 0, 0)), MultiIndex((1, 1, 0)), MultiIndex((2, 0, 0))):
        direct = total_derivative_multi(i, source)
        expansion = Expr.zero()
        for k in sub_indices(i):
            l = i.subtract(k)
            expansion = expansion + i.binomial(k) * expr_sum(
                u(la, k.add(unit(mu, m))) * u(mu, l.add(unit(la, m)))
                for la in range(1, m + 1)
                for mu in range(1, m + 1)
            )
        assert direct == expansion


def test_laplacian_definition():
    f = p((0, 0, 0))
    assert laplacian(3, f) == p((2, 0, 0)) + p((0, 2, 0)) + p((0, 0, 2))
    assert laplacian_primed(3, f) == p((0, 2, 0)) + p((0, 0, 2))


def test_laplacian_split():
    rng = random.Random(11)
    pool = variable_pool()
    for _ in range(10):
        f = random_expr(rng, pool)
        d11 = total_derivative(1, total_derivative(1, f))
        assert laplacian(3, f) - laplacian_primed(3, f) - d11 == Expr.zero()


def test_total_derivatives_commute():
    rng = random.Random(5150)
    pool = variable_pool(max_u_order=3, max_p_order=2)
    for _ in range(20):
        f = random_expr(rng, pool)
        for mu in (1, 2, 3):
            for nu_dir in (1, 2, 3):
                lhs = total_derivative(mu, total_derivative(nu_dir, f))
                rhs = total_derivative(nu_dir, total_derivative(mu, f))
                assert lhs == rhs


def test_derivation_property():
    rng = random.Random(61)
    pool = variable_pool()
    for _ in range(10):
        f = random_expr(rng, pool)
        g = random_expr(rng, pool)
        for mu in (1, 2, 3):
            assert total_derivative(mu, f * g) == total_derivative(mu, f) * g + f * total_derivative(mu, g)


def test_multi_composes_additively():
    rng = random.Random(62)
    pool = variable_pool(max_u_order=1, max_p_order=1)
    i = MultiIndex((1, 0, 1))
    j = MultiIndex((0, 2, 0))
    for _ in range(5):
        f = random_expr(rng, pool, n_terms=2)
        assert total_derivative_multi(i, total_derivative_multi(j, f)) == total_derivative_multi(i.add(j), f)


def test_free_images_are_built_once_per_variable_and_direction():
    variables = variable_pool(3, allow_nu=True, allow_t=True)
    for v in variables:
        for mu in (1, 2, 3):
            first = totalderiv._free_image(v, mu)
            assert totalderiv._free_image(v, mu) is first
            assert first == totalderiv._first_free_image(v, mu)
            assert total_derivative(mu, Expr.var(v)) == first
    assert totalderiv._free_image(uvar(2, zero(3)), 3) == u(2, unit(3, 3))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("setting", list(Setting))
def test_the_derivative_table_agrees_with_single_derivatives(setting, m):
    # sorted paths of 0-4 directions, asked in random order, so a request
    # finds its tails kept, partly kept or missing; each entry is a chain of
    # single derivatives in ascending and in descending direction order,
    # and the table takes one derivative per distinct nonempty tail
    ctx = ReductionContext(setting, m)
    single = total_derivative if setting is Setting.FREE else partial(restricted_derivative, ctx)
    rng = random.Random(70 + 10 * m + len(setting.value))
    pool = variable_pool(m, max_u_order=1, max_p_order=1, ctx=ctx)
    for _ in range(3):
        f = random_expr(rng, pool, n_terms=2)
        calls = []
        d = derivatives(lambda mu, g: calls.append(mu) or single(mu, g), f)
        paths = [tuple(sorted(rng.choices(range(1, m + 1), k=rng.randint(0, 4)))) for _ in range(10)]
        for path in paths:
            ascending = descending = f
            for mu in path:
                ascending = single(mu, ascending)
            for mu in reversed(path):
                descending = single(mu, descending)
            assert d(path) == ascending == descending
        tails = {path[k:] for path in paths for k in range(len(path))}
        assert len(calls) == len(tails)


def test_an_index_path_lists_its_directions_in_order():
    assert MultiIndex((2, 0, 1)).path == (1, 1, 3)
    assert MultiIndex((0, 0)).path == ()
    assert MultiIndex((2, 0, 1)).path is MultiIndex((2, 0, 1)).path


def test_a_deep_derivative_builds_its_tails_in_a_loop():
    # 1500 directions, past the default recursion limit
    ctx = ReductionContext(Setting.FREE, 3)
    assert restricted_derivative_multi(ctx, MultiIndex((1500, 0, 0)), u(2, (0, 0, 0))) == u(2, (1500, 0, 0))


def test_a_path_past_the_order_bound_is_refused():
    # a table keeps every tail of a path, so its keys grow with the square
    # of the order; the refusal comes before any tail is built
    assert len(MultiIndex((MAX_ORDER - 1, 1, 0)).path) == MAX_ORDER
    message = f"^a derivative of order {MAX_ORDER + 1} exceeds the order bound {MAX_ORDER}$"
    for build in (total_derivative_multi, partial(restricted_derivative_multi, ReductionContext(Setting.CE, 3))):
        with pytest.raises(ValueError, match=message):
            build(MultiIndex((MAX_ORDER, 0, 1)), u(2, (0, 0, 0)))
