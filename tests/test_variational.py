import random
from fractions import Fraction

import pytest

from jetns import totalderiv
from jetns.constraints import reduce
from jetns.exprio import parse_tuple
from jetns.jetalgebra import Expr, expr_sum, p, u, x
from jetns.multiindex import MultiIndex, sub_indices, unit
from jetns.ns_presets import evolution_current, ns_build
from jetns.totalderiv import laplacian, total_derivative, total_derivative_multi
from jetns.variational import (
    Cotuple,
    CurrentTuple,
    OperatorCoefficients,
    current_divergence,
    euler_operator,
    formal_adjoint,
    frechet_linearization,
    helmholtz_residual,
    operator_adjoint,
)

from conftest import random_characteristic, random_expr, variable_pool


def test_euler_annihilates_total_derivative():
    # u1 * u1_x1 is half the first derivative of a square
    L = u(1, (0, 0, 0)) * u(1, (1, 0, 0))
    assert euler_operator(L, 3).is_zero()


def test_euler_of_gradient_energy():
    # brute-force check of the alternating sum for the two occurring jets,
    # then against the frozen closed form
    L = Fraction(1, 2) * expr_sum(p(unit(mu, 3)) ** 2 for mu in (1, 2, 3))
    brute = Expr.zero()
    for mu in (1, 2, 3):
        partial = L.diff(p(unit(mu, 3)).variables()[0])
        brute = brute + Fraction(-1) * total_derivative_multi(unit(mu, 3), partial)
    result = euler_operator(L, 3)
    assert result.pressure == brute
    assert result.pressure == -laplacian(3, p((0, 0, 0)))
    assert all(c.is_zero() for c in result.velocity)


def test_euler_of_pressure_times_divergence():
    L = p((0, 0, 0)) * expr_sum(u(mu, unit(mu, 3)) for mu in (1, 2, 3))
    result = euler_operator(L, 3)
    for mu in (1, 2, 3):
        assert result.velocity[mu - 1] == -p(unit(mu, 3))
    assert result.pressure == expr_sum(u(mu, unit(mu, 3)) for mu in (1, 2, 3))


def test_euler_annihilates_random_divergences():
    rng = random.Random(31)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for _ in range(10):
        h = [random_expr(rng, pool, n_terms=2) for _ in range(3)]
        L = expr_sum(total_derivative(mu, h[mu - 1]) for mu in (1, 2, 3))
        assert euler_operator(L, 3).is_zero()


def test_frechet_identity_operator():
    chi = Cotuple(3, {("u", mu): u(mu, (0, 0, 0)) for mu in (1, 2, 3)})
    op = frechet_linearization(chi)
    zero3 = MultiIndex((0, 0, 0))
    for mu in (1, 2, 3):
        assert op.coefficient(mu, mu, zero3) == Expr.const(1)
    assert len(op.items()) == 3


def test_frechet_single_derivative():
    chi = Cotuple(3, {("u", 1): u(1, (1, 0, 0))})
    op = frechet_linearization(chi)
    assert op.items() == [((1, 1, MultiIndex((1, 0, 0))), Expr.const(1))]


def test_frechet_reproduces_ev_action(free_ctx):
    # applying the coefficient family to a characteristic agrees with the
    # evolutionary action on each entry
    from jetns.evolutionary import ev_apply

    rng = random.Random(32)
    pool = variable_pool(max_u_order=1, max_p_order=1)
    L = p((0, 0, 0)) * expr_sum(u(mu, unit(mu, 3)) for mu in (1, 2, 3))
    chi = euler_operator(L, 3)
    op = frechet_linearization(chi)
    for _ in range(5):
        f = random_characteristic(rng, pool)
        for target in (1, 2, 3, 0):
            applied = Expr.zero()
            for (t_slot, s_slot, k), coeff in op.items():
                if t_slot != target:
                    continue
                applied = applied + coeff * total_derivative_multi(k, f.component(s_slot))
            assert applied == ev_apply(free_ctx, f, chi.component(target))


def test_adjoint_of_multiplication_is_itself():
    chi = Cotuple(3, {("u", mu): u(mu, (0, 0, 0)) for mu in (1, 2, 3)})
    assert formal_adjoint(chi) == frechet_linearization(chi)


def test_adjoint_of_first_derivative_flips_sign():
    chi = Cotuple(3, {("u", 1): u(1, (1, 0, 0))})
    op = formal_adjoint(chi)
    assert op.items() == [((1, 1, MultiIndex((1, 0, 0))), Expr.const(-1))]


def test_adjoint_matches_operator_adjoint_of_linearization():
    rng = random.Random(33)
    pool = variable_pool(max_u_order=2, max_p_order=1)
    for _ in range(8):
        chi = random_characteristic(rng, pool, shape=Cotuple)
        assert formal_adjoint(chi) == operator_adjoint(frechet_linearization(chi))


def test_operator_adjoint_derives_each_coefficient_once_per_sub_index(monkeypatch):
    # D_l of a coefficient is one total derivative of a D_l' already built,
    # not |l| derivatives from scratch; the sum is the textbook one
    rng = random.Random(36)
    pool = variable_pool(max_u_order=2, max_p_order=1)
    coeffs = {(1, 2, MultiIndex((2, 1, 0))): random_expr(rng, pool), (0, 3, MultiIndex((1, 1, 1))): random_expr(rng, pool)}
    op = OperatorCoefficients(coeffs)
    expected = {}
    for (target, source, j), expr in coeffs.items():
        for k in sub_indices(j):
            term = (-1) ** j.total * j.binomial(k) * total_derivative_multi(j.subtract(k), expr)
            expected[source, target, k] = expected.get((source, target, k), Expr.zero()) + term
    derivations = []
    derive = totalderiv.derive
    monkeypatch.setattr(totalderiv, "derive", lambda *args: derivations.append(1) or derive(*args))
    assert operator_adjoint(op) == OperatorCoefficients(expected)
    assert len(derivations) == (6 - 1) + (8 - 1)


def test_adjoint_involution():
    rng = random.Random(34)
    pool = variable_pool(max_u_order=2, max_p_order=1)
    for _ in range(8):
        chi = random_characteristic(rng, pool, shape=Cotuple)
        op = frechet_linearization(chi)
        assert operator_adjoint(operator_adjoint(op)) == op


def test_helmholtz_passes_on_euler_images():
    rng = random.Random(35)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for _ in range(10):
        L = random_expr(rng, pool, n_terms=3)
        assert helmholtz_residual(euler_operator(L, 3)).is_zero()


def test_helmholtz_fails_on_first_derivative():
    chi = Cotuple(3, {("u", 1): u(1, (1, 0, 0))})
    residual = helmholtz_residual(chi)
    assert residual.items() == [((1, 1, MultiIndex((1, 0, 0))), Expr.const(2))]


def test_helmholtz_passes_on_symmetric_multiplication():
    chi = Cotuple(3, {("p",): p((0, 0, 0))})
    assert helmholtz_residual(chi).is_zero()


def test_helmholtz_reads_the_dimension_off_the_cotuple():
    # with m passed alongside, m=1 gave an empty family for this cotuple,
    # so it passed as variational, and m=3 raised IndexError
    chi = parse_tuple("f1: u1_[1,0]", "cotuple", 2)
    assert helmholtz_residual(chi).items() == [((1, 1, MultiIndex((1, 0))), Expr.const(2))]
    assert helmholtz_residual(parse_tuple("f1: u1_[0,0]; f2: u2_[0,0]", "cotuple", 2)).is_zero()


def test_current_divergence_refuses_another_dimension(cpe_ctx):
    # a 2-component current in an m=3 context once returned 2
    current = CurrentTuple(2, {("j", 1): x(1), ("j", 2): x(2)})
    with pytest.raises(ValueError, match="current has 2 components, context m=3"):
        current_divergence(cpe_ctx, current)


def test_velocity_current_is_conserved_on_ce(ce_ctx):
    current = CurrentTuple(3, {("j", mu): u(mu, (0, 0, 0)) for mu in (1, 2, 3)})
    assert current_divergence(ce_ctx, current).is_zero()


def test_evolution_current_conserved_on_cpe(cpe_ctx):
    inst = ns_build(3)
    assert current_divergence(cpe_ctx, evolution_current(inst)).is_zero()


def test_nonconserved_current_witness(cpe_ctx):
    current = CurrentTuple(3, {("j", 1): u(1, (0, 0, 0)) ** 2})
    residual = current_divergence(cpe_ctx, current)
    expected = reduce(cpe_ctx, 2 * u(1, (0, 0, 0)) * u(1, (1, 0, 0)))
    assert residual == expected
    assert not residual.is_zero()


def test_free_divergence_identity_exact():
    # the flux divergence equals the pressure generator pulled back through
    # the constraint combination, as an exact free-algebra identity
    from jetns.constraints import continuity_generator, pressure_generator
    from jetns.jetalgebra import nu
    from jetns.multiindex import zero as zero_index

    m = 3
    inst = ns_build(m)
    div = expr_sum(total_derivative(mu, inst.evolution_velocity[mu - 1]) for mu in range(1, m + 1))
    ce = continuity_generator(m)
    transported = nu * laplacian(m, ce) - expr_sum(
        u(la, zero_index(m)) * total_derivative(la, ce) for la in range(1, m + 1)
    )
    assert (div + pressure_generator(m) - transported).is_zero()


def test_cotuple_arithmetic_keeps_its_shape(cpe_ctx):
    a = Cotuple(3, {("u", 1): u(1, (1, 0, 0)), ("u", 2): x(2), ("p",): p((2, 0, 0))})
    b = Cotuple(3, {("u", 1): x(1), ("u", 3): u(2, (0, 1, 0)), ("p",): Expr.const(1)})
    for value in (a + b, a - b, 3 * a, a.reduce(cpe_ctx)):
        assert type(value) is Cotuple
        assert value.shape == "cotuple"
    assert (a - b).component(0) == p((2, 0, 0)) - 1
