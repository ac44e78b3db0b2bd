import copy
import itertools
import pickle
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
from jetns.jetalgebra import NU_VAR, T_VAR, Expr, p, pvar, u, uvar, x, xvar
from jetns.multiindex import MultiIndex, indices_up_to, zero
from jetns.reducedcomplex import AnsatzSpec, _entries, _unknowns
from jetns.totalderiv import laplacian_primed, total_derivative, total_derivative_multi

from conftest import path_derivatives, random_expr, variable_pool


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


@pytest.mark.parametrize("setting", [Setting.FREE, Setting.CE, Setting.CPE])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_restricted_derivatives_commute(setting, m):
    # kernel and system assembly sort each second-order path, so D_mu D_nu f
    # must equal D_nu D_mu f on canonical inputs in every setting
    ctx = ReductionContext(setting, m)
    rng = random.Random(f"commute-{setting.value}-{m}")
    pool = variable_pool(m, max_u_order=2, max_p_order=2, ctx=ctx)
    nonzero = 0
    for _ in range(15):
        f = random_expr(rng, pool)
        for mu, nu in itertools.combinations(range(1, m + 1), 2):
            lhs = restricted_derivative(ctx, mu, restricted_derivative(ctx, nu, f))
            assert lhs == restricted_derivative(ctx, nu, restricted_derivative(ctx, mu, f))
            nonzero += not lhs.is_zero()
    assert nonzero


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
    # a second ReductionContext(setting, 3) is this warm context itself, so
    # the reference takes the free derivative of the reduced input and
    # reduces it by substitution: no derivative of f comes from the table
    ctx = ReductionContext(setting, 3)
    inputs = _warm(ctx, 31)
    assert ctx._derivatives  # the table is warm
    for f in inputs:
        assert reduce(ctx, f) is f  # a reduced input
        for mu in (1, 2, 3):
            assert restricted_derivative(ctx, mu, f) == reduce(ctx, total_derivative(mu, f))


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


# -- one context per value ------------------------------------------------


@pytest.mark.parametrize("setting", [Setting.FREE, Setting.CE, Setting.CPE])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_one_context_per_value(setting, m):
    ctx = ReductionContext(setting, m)
    assert ReductionContext(setting, m) is ctx
    assert ReductionContext(Setting(setting.value), m) is ctx
    assert copy.copy(ctx) is ctx
    assert copy.deepcopy(ctx) is ctx
    assert copy.deepcopy([ctx, ctx])[1] is ctx
    assert pickle.loads(pickle.dumps(ctx)) is ctx
    assert all(ReductionContext(s, m) is not ctx for s in Setting if s is not setting)
    assert ReductionContext(setting, m + 1) is not ctx


def test_a_hit_leaves_the_tables_untouched(cpe_ctx):
    _warm(cpe_ctx, 33)
    phi, images, derivatives = cpe_ctx.phi_reduced, cpe_ctx._images, cpe_ctx._derivatives
    before = dict(images), dict(derivatives)
    assert images and derivatives
    assert ReductionContext(Setting.CPE, 3) is cpe_ctx
    assert cpe_ctx.phi_reduced is phi
    assert cpe_ctx._images is images and cpe_ctx._derivatives is derivatives
    assert (dict(images), dict(derivatives)) == before


def test_an_invalid_dimension_raises_every_call_and_is_never_stored():
    interned = dict(ReductionContext._interned)
    for _ in range(3):
        for setting in Setting:
            with pytest.raises(ValueError, match="dimension must be >= 2"):
                ReductionContext(setting, 1)
    assert ReductionContext._interned == interned


def test_image_table_holds_verdicts_but_never_a_mismatch(cpe_ctx):
    canonical, eliminated = uvar(2, (1, 0, 0)), pvar((2, 1, 0))
    for _ in range(2):
        assert cpe_ctx.image(canonical) is None
        assert cpe_ctx.image(xvar(1)) is None
    assert cpe_ctx.image(eliminated) is cpe_ctx.image(eliminated)
    assert cpe_ctx._images[canonical] is None
    assert cpe_ctx._images[eliminated] is cpe_ctx.image(eliminated)
    for bad in (uvar(2, (1, 1)), pvar((2, 0, 0, 0))):
        for _ in range(3):
            with pytest.raises(ValueError, match="dimension mismatch"):
                cpe_ctx.image(bad)
            assert bad not in cpe_ctx._images


# -- the scaling grading ---------------------------------------------------
#
# The flow is invariant under x -> lambda x, t -> lambda^2 t, u -> u / lambda,
# p -> p / lambda^2 with nu fixed, so a jet variable carries the weight below
# and every rule of a context maps a variable of weight w to a polynomial of
# weight w, and a derivative lowers the weight by one.


def _scaling_weight(v) -> int:
    if v.kind == "x":
        return 1
    if v.kind == "t":
        return 2
    if v.kind == "nu":
        return 0
    if v.kind == "u":
        return -1 - v.index.total
    return -2 - v.index.total


def _weights(f: Expr) -> set[int]:
    """The weights of the monomials of f: one value when f is homogeneous."""
    return {sum(e * _scaling_weight(v) for v, e in mono) for mono, _ in f.items()}


@pytest.mark.parametrize("setting", [Setting.FREE, Setting.CE, Setting.CPE])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_reduction_and_derivative_are_homogeneous(setting, m):
    ctx = ReductionContext(setting, m)
    jets = [xvar(mu) for mu in range(1, m + 1)] + [T_VAR, NU_VAR]
    for i in indices_up_to(m, 3):
        jets += [uvar(a, i) for a in range(1, m + 1)] + [pvar(i)]
    images = derivatives = 0
    for v in jets:
        w = _scaling_weight(v)
        img = ctx.image(v)
        if img is not None:
            assert _weights(img) == {w}, (ctx, v, img)
            images += 1
            continue
        for mu in range(1, m + 1):
            d = restricted_derivative(ctx, mu, Expr.var(v))
            assert _weights(d) <= {w - 1}, (ctx, v, mu, d)
            derivatives += not d.is_zero()
    # the free context has no images; ce and cpe have the u^1 rule, cpe the p rule
    assert (images == 0) == (setting is Setting.FREE)
    assert derivatives > len(jets)


# The reduced-complex labels carry weights too: an entry f at a label has
# the weight of f plus the label's weight, and the transported derivative
# (D_1 plus the correction) lowers that weight by exactly one.

_LABEL_WEIGHTS = {"chi01": 0, "chi0": -1, "chi1": -2}


def _label_weight(label) -> int:
    """chi01 0, chi0 -1, chi1 -2; ("chi_alpha", i1, a) and ("chi_p", i1) -i1."""
    if label[0] in ("chi_alpha", "chi_p"):
        return -label[1]
    return _LABEL_WEIGHTS[label[0]]


_COLUMN_ANSATZ = AnsatzSpec(max_order=1, max_degree=2, max_x_degree=2, include_t=True)


def _kernel_columns(ctx: ReductionContext):
    """(label, monomial, target, expression) for every output of every unknown's column."""
    for label, mono in _unknowns(ctx, _COLUMN_ANSATZ):
        f = Expr({mono: 1})
        df = path_derivatives(ctx, f)
        for target, expr in _entries(ctx, "derivative", label, f, df):
            yield label, mono, target, expr


@pytest.mark.parametrize("setting", [Setting.CE, Setting.CPE])
@pytest.mark.parametrize("m", [2, 3])
def test_kernel_columns_lower_the_weight_by_one(setting, m):
    ctx = ReductionContext(setting, m)
    outputs = 0
    for label, mono, target, expr in _kernel_columns(ctx):
        source = _label_weight(label) + sum(e * _scaling_weight(v) for v, e in mono)
        weights = {w + _label_weight(target) for w in _weights(expr)}
        assert weights <= {source - 1}, (label, mono, target, expr)
        outputs += not expr.is_zero()
    assert outputs > len(_unknowns(ctx, _COLUMN_ANSATZ))


# -- the reflection grading ------------------------------------------------
#
# The flow is invariant under each reflection x^d -> -x^d, which flips u^d
# and every derivative along d.  A parity is the set of reflections that
# flip a quantity, kept as a bit mask with bit d-1 for direction d.  The
# transported derivative differentiates along the first direction, so it
# flips the parity in direction 1.


def _parity(v) -> int:
    """x^d and u^d are odd in d, and so is each derivative along d."""
    bits = 1 << (v.mu - 1) if v.kind in ("x", "u") else 0
    for d, order in enumerate(v.index.entries if v.index is not None else ()):
        bits ^= (order % 2) << d
    return bits


def _label_parity(label) -> int:
    """chi01 and chi1 odd in direction 1, chi0 even; ("chi_alpha", i1, a)
    odd in a; ("chi_alpha", i1, a) and ("chi_p", i1) have parity i1 in
    direction 1."""
    kind = label[0]
    if kind == "chi_alpha":
        return (1 << (label[2] - 1)) ^ (label[1] % 2)
    if kind == "chi_p":
        return label[1] % 2
    return {"chi01": 1, "chi0": 0, "chi1": 1}[kind]


def _monomial_parity(mono) -> int:
    bits = 0
    for v, e in mono:
        bits ^= _parity(v) * (e % 2)
    return bits


@pytest.mark.parametrize("setting", [Setting.CE, Setting.CPE])
@pytest.mark.parametrize("m", [2, 3])
def test_kernel_columns_flip_the_first_reflection(setting, m):
    ctx = ReductionContext(setting, m)
    outputs = 0
    for label, mono, target, expr in _kernel_columns(ctx):
        expected = _label_parity(label) ^ _monomial_parity(mono) ^ 1
        parities = {_monomial_parity(out) ^ _label_parity(target) for out, _ in expr.items()}
        assert parities <= {expected}, (label, mono, target, expr)
        outputs += len(expr.items())
    assert outputs > len(_unknowns(ctx, _COLUMN_ANSATZ))
