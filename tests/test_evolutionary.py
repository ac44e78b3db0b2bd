import random
from fractions import Fraction

import pytest

from jetns.constraints import ReductionContext, Setting, reduce, restricted_derivative_multi
from jetns.evolutionary import (
    Characteristic,
    EvolutionField,
    commutator_with_total,
    divergence_residual,
    ev_apply,
    evolution_derivative,
    linearize_evolution,
    pressure_coupling_residual,
    pressure_shift_characteristic,
    symmetry_residuals,
    time_symmetry_residual,
    translation_characteristic,
)
from jetns.jetalgebra import Expr, p, t, u, x
from jetns.multiindex import MultiIndex
from jetns.ns_presets import evolution_field, ns_build
from jetns.reducedcomplex import ChiTupleCPE, reduced_system_residuals
from jetns.tuples import LabelTuple

from conftest import random_characteristic, random_expr, variable_pool


def test_ev_on_jet_variable_is_derived_component(free_ctx):
    f = Characteristic(3, {("u", 1): x(2) * u(1, (0, 0, 0)), ("p",): p((0, 0, 0))})
    g = u(1, (1, 1, 0))
    expected = restricted_derivative_multi(free_ctx, MultiIndex((1, 1, 0)), f.velocity[0])
    assert ev_apply(free_ctx, f, g) == expected
    assert ev_apply(free_ctx, f, p((0, 1, 0))) == p((0, 1, 0))


def test_ev_of_constant_is_zero(free_ctx, rng):
    f = random_characteristic(rng, variable_pool())
    assert ev_apply(free_ctx, f, Expr.const(5)).is_zero()
    assert ev_apply(free_ctx, f, x(1) + t).is_zero()


def _gradient_pairing(ctx, f):
    from jetns.constraints import restricted_derivative, velocity_gradient_entry

    total = Expr.zero()
    for la in range(1, ctx.m + 1):
        for mu in range(1, ctx.m + 1):
            total = total + 2 * velocity_gradient_entry(ctx, la, mu) * restricted_derivative(
                ctx, la, f.velocity[mu - 1]
            )
    return total


def test_ev_of_quadratic_source_for_divergence_free_fields(ce_ctx):
    # the field action on the reduced quadratic source collapses to the
    # doubled gradient pairing when the divergence condition holds
    from jetns.constraints import quad_source

    stream = p((0, 1, 0))
    solenoidal = Characteristic(3, {
        ("u", 1): restricted_derivative_multi(ce_ctx, MultiIndex((0, 1, 0)), stream),
        ("u", 2): -restricted_derivative_multi(ce_ctx, MultiIndex((1, 0, 0)), stream),
    })
    for f in (translation_characteristic(ce_ctx, 1), translation_characteristic(ce_ctx, 3), solenoidal):
        assert symmetry_residuals(ce_ctx, f).passed
        lhs = reduce(ce_ctx, ev_apply(ce_ctx, f, reduce(ce_ctx, quad_source(3))))
        assert lhs == reduce(ce_ctx, _gradient_pairing(ce_ctx, f))


def test_ev_of_quadratic_source_general_correction(ce_ctx):
    # for arbitrary fields the two forms differ by the spatial divergence
    # block times the full divergence
    from jetns.constraints import quad_source, restricted_derivative

    rng = random.Random(3)
    pool = variable_pool(ctx=ce_ctx, max_u_order=1, max_p_order=1)
    spatial_block = u(2, (0, 1, 0)) + u(3, (0, 0, 1))
    for _ in range(5):
        f = random_characteristic(rng, pool)
        divergence = sum(
            (restricted_derivative(ce_ctx, mu, f.velocity[mu - 1]) for mu in (1, 2, 3)),
            Expr.zero(),
        )
        lhs = reduce(ce_ctx, ev_apply(ce_ctx, f, reduce(ce_ctx, quad_source(3))))
        rhs = reduce(ce_ctx, _gradient_pairing(ce_ctx, f) + 2 * spatial_block * divergence)
        assert lhs == rhs


def test_ev_is_derivation_in_argument(free_ctx):
    rng = random.Random(26)
    pool = variable_pool(max_u_order=1, max_p_order=1)
    for _ in range(8):
        f = random_characteristic(rng, pool)
        g = random_expr(rng, pool, n_terms=2)
        h = random_expr(rng, pool, n_terms=2)
        lhs = ev_apply(free_ctx, f, g * h)
        rhs = ev_apply(free_ctx, f, g) * h + g * ev_apply(free_ctx, f, h)
        assert lhs == rhs


def test_ev_is_linear_in_characteristic(free_ctx):
    rng = random.Random(27)
    pool = variable_pool(max_u_order=1, max_p_order=1)
    for _ in range(8):
        f1 = random_characteristic(rng, pool)
        f2 = random_characteristic(rng, pool)
        g = random_expr(rng, pool)
        combined = 2 * f1 + Fraction(-3, 2) * f2
        lhs = ev_apply(free_ctx, combined, g)
        rhs = 2 * ev_apply(free_ctx, f1, g) + Fraction(-3, 2) * ev_apply(free_ctx, f2, g)
        assert lhs == rhs


def test_free_commutator_vanishes(free_ctx):
    rng = random.Random(21)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for _ in range(10):
        f = random_characteristic(rng, pool)
        g = random_expr(rng, pool)
        for mu in (1, 2, 3):
            assert commutator_with_total(free_ctx, mu, f, g).is_zero()


def test_ce_commutator_detects_violation(ce_ctx):
    f = Characteristic(3, {("u", 1): u(1, (0, 0, 0))})
    residual = commutator_with_total(ce_ctx, 1, f, u(1, (0, 0, 0)))
    assert not residual.is_zero()


def test_symmetry_residual_translation(ce_ctx):
    f = translation_characteristic(ce_ctx, 1)
    report = symmetry_residuals(ce_ctx, f)
    assert report.passed


def test_symmetry_residual_constants(ce_ctx):
    f = Characteristic(3, {("u", 1): Expr.const(1), ("u", 2): Expr.const(2), ("u", 3): Expr.const(-1)})
    assert symmetry_residuals(ce_ctx, f).passed


def test_cpe_determining_equations_sufficient(cpe_ctx):
    # residuals zero implies vanishing commutators on coordinate variables
    for f in [
        translation_characteristic(cpe_ctx, 2),
        translation_characteristic(cpe_ctx, 1),
        pressure_shift_characteristic(cpe_ctx),
    ]:
        assert symmetry_residuals(cpe_ctx, f).passed
        for g in (u(1, (0, 0, 0)), u(2, (0, 1, 0)), u(3, (0, 0, 1)), p((0, 0, 0)), p((1, 0, 0))):
            for mu in (1, 2, 3):
                assert reduce(cpe_ctx, commutator_with_total(cpe_ctx, mu, f, g)).is_zero()


def test_symmetry_residuals_of_violating_field(cpe_ctx):
    f = Characteristic(3, {("u", 1): u(2, (0, 0, 0))})
    report = symmetry_residuals(cpe_ctx, f)
    assert not report.passed
    assert report.residual("divergence") == reduce(cpe_ctx, u(2, (1, 0, 0)))


def test_symmetry_residuals_reduce_their_input_once(cpe_ctx, monkeypatch):
    # both cpe residuals read the one reduced tuple, and equal the public
    # residuals, which each reduce their input
    rng = random.Random(57)
    f = random_characteristic(rng, variable_pool(max_u_order=2, max_p_order=1))
    reduced = []
    real = LabelTuple.reduce
    spy = lambda self, ctx: reduced.append(self) or real(self, ctx)
    monkeypatch.setattr(LabelTuple, "reduce", spy)
    report = symmetry_residuals(cpe_ctx, f)
    assert sum(g is f for g in reduced) == 1
    assert report.entries == [
        ("divergence", divergence_residual(cpe_ctx, f)),
        ("pressure_poisson", pressure_coupling_residual(cpe_ctx, f)),
    ]


def test_evolution_derivative_examples():
    inst = ns_build(3)
    field = evolution_field(inst)
    for mu in (1, 2, 3):
        assert evolution_derivative(field, u(mu, (0, 0, 0))) == field.characteristic.velocity[mu - 1]
    assert evolution_derivative(field, t) == Expr.const(1)


def test_evolution_derivative_of_divergence_before_reduction(free_ctx):
    # on the free algebra the time derivative of the divergence generator
    # is the divergence of the evolution components
    from jetns.constraints import continuity_generator
    from jetns.totalderiv import total_derivative

    inst = ns_build(3)
    free_field = EvolutionField(Characteristic(3, dict(zip(Characteristic.labels(3), inst.evolution_velocity))), free_ctx)
    lhs = evolution_derivative(free_field, continuity_generator(3))
    rhs = sum(
        (total_derivative(mu, inst.evolution_velocity[mu - 1]) for mu in (1, 2, 3)),
        Expr.zero(),
    )
    assert lhs == rhs


def test_linearization_matches_ev(cpe_ctx):
    inst = ns_build(3)
    field = evolution_field(inst)
    rng = random.Random(23)
    pool = variable_pool(ctx=cpe_ctx, max_u_order=1, max_p_order=1)
    for _ in range(5):
        f = random_characteristic(rng, pool).reduce(cpe_ctx)
        lin = linearize_evolution(field, f)
        for mu in (1, 2, 3):
            assert reduce(cpe_ctx, ev_apply(cpe_ctx, f, field.characteristic.velocity[mu - 1]) - lin.velocity[mu - 1]).is_zero()
        assert reduce(cpe_ctx, ev_apply(cpe_ctx, f, field.characteristic.pressure) - lin.pressure).is_zero()


def test_linearization_of_constant_coefficient_field(cpe_ctx):
    # a field linear in the jets acts on f as the same operator shape
    e = Characteristic(3, {("u", 1): u(2, (0, 1, 0)), ("u", 2): u(3, (0, 0, 1)), ("u", 3): u(1, (0, 1, 0))})
    field = EvolutionField(e, cpe_ctx)
    f = Characteristic(3, {("u", 1): p((0, 0, 0)), ("u", 2): x(1) * x(2), ("u", 3): Expr.const(3)})
    lin = linearize_evolution(field, f)
    assert lin.velocity[0] == restricted_derivative_multi(cpe_ctx, MultiIndex((0, 1, 0)), f.velocity[1])
    assert lin.velocity[1] == restricted_derivative_multi(cpe_ctx, MultiIndex((0, 0, 1)), f.velocity[2])
    assert lin.velocity[2] == restricted_derivative_multi(cpe_ctx, MultiIndex((0, 1, 0)), f.velocity[0])


def test_time_symmetry_of_evolution_itself(cpe_ctx):
    inst = ns_build(3)
    field = evolution_field(inst)
    residual = time_symmetry_residual(field, field.characteristic)
    assert all(reduce(cpe_ctx, c).is_zero() for c in residual.velocity)
    assert reduce(cpe_ctx, residual.pressure).is_zero()


def test_time_symmetry_pressure_shift(cpe_ctx):
    inst = ns_build(3)
    field = evolution_field(inst)
    shift = pressure_shift_characteristic(cpe_ctx)
    residual = time_symmetry_residual(field, shift)
    # velocity components of the evolution see the pressure only through
    # its gradient, so a constant shift leaves them untouched
    assert all(reduce(cpe_ctx, c).is_zero() for c in residual.velocity)


def test_time_symmetry_detects_explicit_time(cpe_ctx):
    inst = ns_build(3)
    field = evolution_field(inst)
    f = Characteristic(3, {("u", 1): t})
    residual = time_symmetry_residual(field, f)
    assert not all(reduce(cpe_ctx, c).is_zero() for c in residual.velocity)


def test_admissibility_report(cpe_ctx):
    inst = ns_build(3)
    field = evolution_field(inst)
    report = symmetry_residuals(field.context, field.characteristic)
    assert report.residual("divergence").is_zero()
    assert not report.residual("pressure_poisson").is_zero()


@pytest.mark.parametrize("m", [2, 3])
def test_residuals_of_reduced_inputs_are_canonical(m):
    # the residuals reduce their inputs and then apply only restricted
    # derivatives, products and d/dt, so no final reduction is needed
    rng = random.Random(1616 + m)
    outputs = []
    for setting in (Setting.CE, Setting.CPE):
        ctx = ReductionContext(setting, m)
        pool = variable_pool(m, max_u_order=2, max_p_order=2, allow_t=True)
        for _ in range(6):
            f = random_characteristic(rng, pool, m=m)
            outputs += [(ctx, expr) for _, expr in symmetry_residuals(ctx, f).entries]
    ctx = ReductionContext(Setting.CPE, m)
    small = variable_pool(m, max_u_order=1, max_p_order=1, allow_t=True)
    fields = [evolution_field(ns_build(m)), evolution_field(ns_build(m, Fraction(1, 7)))]
    fields.append(EvolutionField(random_characteristic(rng, small, m=m).reduce(ctx), ctx))
    for field in fields:
        for _ in range(3):
            f = random_characteristic(rng, small, m=m).reduce(ctx)
            residual = time_symmetry_residual(field, f)
            outputs += [(ctx, c) for c in residual.velocity + (residual.pressure,)]
    for _ in range(6):
        labels = [l for l in ChiTupleCPE.labels(m, 2) if rng.random() < 0.5]
        chi = ChiTupleCPE(m, {l: random_expr(rng, small, n_terms=2) for l in labels}).reduce(ctx)
        outputs += [(ctx, expr) for _, expr in reduced_system_residuals(ctx, chi)]
    assert sum(not expr.is_zero() for _, expr in outputs) > len(outputs) // 2
    for ctx, expr in outputs:
        assert all(ctx.image(v) is None for v in expr.variables()), (ctx, expr)
