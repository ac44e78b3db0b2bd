import random

import pytest

from jetns.constraints import (
    ReductionContext,
    Setting,
    continuity_generator,
    ideal_member,
    phi_expr,
    pressure_generator,
    quad_source,
    reduce,
    reduce_ce,
    restricted_derivative,
    restricted_derivative_multi,
)
from jetns.jetalgebra import p, u, x, xvar
from jetns.multiindex import MultiIndex, zero
from jetns.totalderiv import laplacian_primed, total_derivative, total_derivative_multi

from conftest import random_expr, variable_pool


def test_u1_elimination_rule():
    assert reduce_ce(u(1, (1, 0, 0)), 3) == -u(2, (0, 1, 0)) - u(3, (0, 0, 1))


def test_divergence_generator_reduces_to_zero():
    assert reduce_ce(continuity_generator(3), 3).is_zero()


def test_second_order_elimination():
    # one application of the rule at the index (2,0,0)
    assert reduce_ce(u(1, (2, 0, 0)), 3) == -u(2, (1, 1, 0)) - u(3, (1, 0, 1))


def test_pressure_elimination_base_case(cpe_ctx):
    expected = -(p((0, 2, 0)) + p((0, 0, 2))) - reduce_ce(quad_source(3), 3)
    assert reduce(cpe_ctx, p((2, 0, 0))) == expected
    assert reduce(cpe_ctx, p((2, 0, 0))) == -cpe_ctx.phi_reduced


def test_pressure_generator_reduces_to_zero(cpe_ctx):
    assert reduce(cpe_ctx, pressure_generator(3)).is_zero()


def test_phi_definition(cpe_ctx):
    assert cpe_ctx.phi_reduced == laplacian_primed(3, p((0, 0, 0))) + reduce_ce(quad_source(3), 3)
    assert phi_expr(3) == cpe_ctx.phi_reduced


def test_free_context_is_identity(free_ctx):
    f = u(1, (3, 0, 0)) * p((2, 0, 0))
    assert reduce(free_ctx, f) == f
    assert restricted_derivative(free_ctx, 1, f) == total_derivative(1, f)


def test_restricted_derivative_examples(ce_ctx, cpe_ctx):
    assert restricted_derivative(ce_ctx, 1, u(1, (0, 0, 0))) == -u(2, (0, 1, 0)) - u(3, (0, 0, 1))
    assert restricted_derivative(cpe_ctx, 1, p((1, 0, 0))) == -cpe_ctx.phi_reduced


def test_restricted_derivative_rejects_off_coordinate_input(cpe_ctx):
    with pytest.raises(ValueError):
        restricted_derivative(cpe_ctx, 1, u(1, (1, 0, 0)))
    with pytest.raises(ValueError):
        restricted_derivative(cpe_ctx, 1, p((2, 0, 0)))


def test_ideal_membership(ce_ctx, cpe_ctx):
    member, witness = ideal_member(ce_ctx, total_derivative_multi(MultiIndex((0, 1, 0)), continuity_generator(3)))
    assert member and witness.is_zero()
    member, _ = ideal_member(cpe_ctx, pressure_generator(3))
    assert member
    member, witness = ideal_member(cpe_ctx, u(2, (0, 0, 0)))
    assert not member
    assert witness == u(2, (0, 0, 0))


@pytest.mark.parametrize("setting", [Setting.CE, Setting.CPE])
def test_idempotence(setting):
    ctx = ReductionContext(setting, 3)
    rng = random.Random(17)
    pool = variable_pool(max_u_order=3, max_p_order=3)
    for _ in range(20):
        f = random_expr(rng, pool)
        once = reduce(ctx, f)
        assert reduce(ctx, once) == once
        assert reduce(ctx, once) is once  # a canonical input is returned as it is


@pytest.mark.parametrize("setting", [Setting.CE, Setting.CPE])
def test_multiplicativity(setting):
    ctx = ReductionContext(setting, 3)
    rng = random.Random(18)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for _ in range(15):
        f = random_expr(rng, pool, n_terms=2)
        g = random_expr(rng, pool, n_terms=2)
        assert reduce(ctx, f * g) == reduce(ctx, reduce(ctx, f) * reduce(ctx, g))


@pytest.mark.parametrize("setting", [Setting.FREE, Setting.CE, Setting.CPE])
def test_derivation_compatibility(setting):
    # the restricted derivative of the reduction equals the reduction of
    # the free derivative: the ideals are differential
    ctx = ReductionContext(setting, 3)
    rng = random.Random(19)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for _ in range(10):
        f = random_expr(rng, pool, n_terms=2)
        for mu in (1, 2, 3):
            lhs = restricted_derivative(ctx, mu, reduce(ctx, f))
            rhs = reduce(ctx, total_derivative(mu, f))
            assert lhs == rhs


def test_reduction_difference_is_in_ideal(ce_ctx, cpe_ctx):
    rng = random.Random(20)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for ctx in (ce_ctx, cpe_ctx):
        for _ in range(10):
            f = random_expr(rng, pool, n_terms=2)
            member, _ = ideal_member(ctx, f - reduce(ctx, f))
            assert member


def test_termination_at_order_four(cpe_ctx):
    # every order-4 input reduces without blowing up
    for idx in [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1), (3, 0, 1)]:
        out = reduce(cpe_ctx, p(idx) + u(1, idx))
        for v in out.variables():
            if v.kind == "u" and v.mu == 1:
                assert v.index.first == 0
            if v.kind == "p":
                assert v.index.first <= 1


def test_cpe_requires_dimension_two():
    with pytest.raises(ValueError):
        ReductionContext(Setting.CPE, 1)


def test_reduce_rejects_jets_of_another_dimension(ce_ctx, cpe_ctx, free_ctx):
    # a pressure jet of the wrong dimension used to be replaced by an image
    # in the context's dimension instead of being rejected, and canonical
    # jets of another dimension passed through unchanged
    cases = [
        (ce_ctx, u(1, (1, 0))),
        (cpe_ctx, p((2, 0))),
        (cpe_ctx, p((3, 0, 0, 0))),
        (cpe_ctx, p((1, 0)) + u(2, (1, 1))),
        (cpe_ctx, u(2, (1, 1))),
        (ce_ctx, x(1) * p((0, 0))),
        (ce_ctx, u(3, (0, 0, 0, 1))),
    ]
    for ctx, f in cases:
        with pytest.raises(ValueError, match="dimension mismatch"):
            reduce(ctx, f)
    with pytest.raises(ValueError, match="dimension mismatch"):
        restricted_derivative(cpe_ctx, 1, u(2, (1, 1)))
    # the free setting used to take its own path, which never asked the context
    with pytest.raises(ValueError, match="dimension mismatch"):
        restricted_derivative(free_ctx, 1, u(1, (0, 0)))


def test_dimension_two_reduction():
    ctx = ReductionContext(Setting.CPE, 2)
    assert reduce(ctx, continuity_generator(2)).is_zero()
    assert reduce(ctx, pressure_generator(2)).is_zero()


# -- the derivative-image table ------------------------------------------------


def _warm(ctx: ReductionContext, seed: int) -> list:
    """Reduced random inputs whose restricted derivatives fill the table."""
    rng = random.Random(seed)
    pool = variable_pool(max_u_order=2, max_p_order=2, ctx=ctx)
    inputs = [random_expr(rng, pool, n_terms=3) for _ in range(8)]
    for f in inputs:
        for mu in (1, 2, 3):
            restricted_derivative(ctx, mu, f)
    return inputs


@pytest.mark.parametrize("setting", [Setting.FREE, Setting.CE, Setting.CPE])
def test_derivative_table_is_only_a_cache(setting):
    ctx = ReductionContext(setting, 3)
    cold_hash = hash(ctx)
    inputs = _warm(ctx, 31)
    assert ctx._derivatives  # the table is warm
    assert hash(ctx) == cold_hash
    assert ctx == ReductionContext(setting, 3)
    assert len({ctx, ReductionContext(setting, 3)}) == 1
    for f in inputs:
        for mu in (1, 2, 3):
            cold = ReductionContext(setting, 3)
            assert restricted_derivative(ctx, mu, f) == restricted_derivative(cold, mu, f)


def test_derivative_table_never_stores_an_error():
    # each rejected jet follows x1 in its monomial, so the derivation meets
    # a table hit before it meets the jet
    ctx = ReductionContext(Setting.CPE, 3)
    _warm(ctx, 32)
    rejected = [
        (u(1, (1, 0, 0)), "not a canonical coordinate"),
        (p((2, 0, 0)), "not a canonical coordinate"),
        (u(2, (1, 1)), "dimension mismatch"),
        (p((0, 0, 0, 0)), "dimension mismatch"),
    ]
    for f, message in rejected:
        (v, _), = f.items()[0][0]
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                restricted_derivative(ctx, 1, x(1) * f)
            assert (xvar(1), 1) in ctx._derivatives
            assert not any(key[0] == v for key in ctx._derivatives)
