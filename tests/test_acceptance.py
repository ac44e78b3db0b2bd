"""Acceptance suite: one test per criterion, exact zero tolerances.

Every check is an exact identity of canonical expressions; the stated
wall-clock budgets are asserted alongside the algebra.  Run with
``pytest tests/test_acceptance.py -v`` for the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from jetns import linalg
from jetns.constraints import (
    ReductionContext,
    Setting,
    continuity_generator,
    pressure_generator,
    reduce,
    restricted_derivative,
    restricted_derivative_multi,
)
from jetns.evolutionary import (
    Characteristic,
    commutator_with_total,
    ev_apply,
    pressure_shift_characteristic,
    symmetry_residuals,
    translation_characteristic,
)
from jetns.exprio import parse_expr, parse_tuple, print_expr, print_tuple
from jetns.jetalgebra import Expr, expr_sum, u
from jetns.multiindex import MultiIndex
from jetns.ns_presets import divergence_identity_residual, ns_build
from jetns.reducedcomplex import (
    AnsatzSpec,
    ChiTupleCPE,
    kernel_search,
    kernel_vectors,
    reduced_derivative,
    reduced_system_kernel,
    reduced_system_residuals,
    reduced_variational_derivative,
)
from jetns.totalderiv import total_derivative
from jetns.variational import Cotuple, euler_operator, helmholtz_residual

from conftest import random_characteristic, random_expr, variable_pool

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).parent.parent / "bench"


def _bench_kernel_ansatzes(workload: str) -> list[tuple[int, AnsatzSpec, str]]:
    """(m, ansatz, file stem) of each kernel_search ansatz a bench workload runs."""
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    return [
        (
            a["m"],
            AnsatzSpec(a["max_order"], a["max_degree"], a["max_x_degree"]),
            f"cpe_m{a['m']}_o{a['max_order']}_d{a['max_degree']}_x{a['max_x_degree']}",
        )
        for a in spec["workloads"][workload]["dims"]["ansatz"]
    ]


def _report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"criterion {number:02d} {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_c01_total_derivatives_commute():
    started = time.monotonic()
    rng = random.Random(101)
    pool = variable_pool(max_u_order=3, max_p_order=2)
    for _ in range(100):
        f = random_expr(rng, pool)
        for mu in (1, 2, 3):
            for nv in (1, 2, 3):
                lhs = total_derivative(mu, total_derivative(nv, f))
                rhs = total_derivative(nv, total_derivative(mu, f))
                assert lhs == rhs
    _report(1, "total derivatives commute", started, 5.0)


def test_c02_free_symmetry_identity():
    started = time.monotonic()
    rng = random.Random(102)
    ctx = ReductionContext(Setting.FREE, 3)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for _ in range(50):
        f = random_characteristic(rng, pool)
        g = random_expr(rng, pool)
        for mu in (1, 2, 3):
            assert commutator_with_total(ctx, mu, f, g).is_zero()
    _report(2, "free-algebra commutator identity", started, 10.0)


def test_c03_ns_divergence_check():
    started = time.monotonic()
    for m in (3, 2):
        inst = ns_build(m)
        ctx = inst.context
        divergence = expr_sum(
            total_derivative(mu, inst.evolution_velocity[mu - 1])
            for mu in range(1, m + 1)
        )
        assert reduce(ctx, divergence).is_zero()
        # second route: restricted divergence of the reduced components
        restricted = expr_sum(
            restricted_derivative(ctx, mu, reduce(ctx, inst.evolution_velocity[mu - 1]))
            for mu in range(1, m + 1)
        )
        assert restricted.is_zero()
    _report(3, "evolution divergence vanishes on the constraint manifold", started, 1.0)


def test_c04_divergence_identity_both_forms():
    started = time.monotonic()
    inst = ns_build(3)
    assert divergence_identity_residual(inst).is_zero()
    divergence = expr_sum(
        total_derivative(mu, inst.evolution_velocity[mu - 1]) for mu in (1, 2, 3)
    )
    assert reduce(inst.context, divergence).is_zero()
    _report(4, "flux divergence identity, free and reduced", started, 2.0)


def test_c05_euler_annihilates_divergences():
    started = time.monotonic()
    rng = random.Random(105)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for _ in range(30):
        h = [random_expr(rng, pool, n_terms=2) for _ in range(3)]
        L = expr_sum(total_derivative(mu, h[mu - 1]) for mu in (1, 2, 3))
        assert euler_operator(L, 3).is_zero()
    _report(5, "variational derivative annihilates divergences", started, 10.0)


def test_c06_helmholtz_soundness():
    started = time.monotonic()
    rng = random.Random(106)
    pool = variable_pool(max_u_order=2, max_p_order=2)
    for _ in range(30):
        L = random_expr(rng, pool)
        assert helmholtz_residual(euler_operator(L, 3)).is_zero()
    non_variational = Cotuple(3, {("u", 1): u(1, (1, 0, 0))})
    residual = helmholtz_residual(non_variational)
    assert residual.items() == [((1, 1, MultiIndex((1, 0, 0))), Expr.const(2))]
    _report(6, "variationality test sound and complete at test scale", started, 10.0)


def test_c07_ce_kernel_is_one_dimensional():
    started = time.monotonic()
    ctx = ReductionContext(Setting.CE, 3)
    basis = kernel_search(ctx, AnsatzSpec(max_order=1, max_degree=1, max_x_degree=1))
    assert len(basis) == 1
    representative = basis[0]
    assert representative.chi01.constant_value() not in (None, Fraction(0))
    assert not representative.chi_alpha
    assert not representative.chi_p
    # the bench kernel-ce ansatzes: the constant chi01 alone
    for m, ansatz, _ in _bench_kernel_ansatzes("kernel-ce"):
        [chi] = kernel_search(ReductionContext(Setting.CE, m), ansatz)
        assert chi.items() == [(("chi01",), Expr.const(1))]
    _report(7, "continuity-setting kernel is the constants", started, 60.0)


def test_c08_cpe_kernel_and_reduced_system_agree():
    started = time.monotonic()
    ctx = ReductionContext(Setting.CPE, 3)
    constant = ChiTupleCPE(3, {("chi01",): Expr.const(1)})
    assert reduced_derivative(ctx, constant).is_zero()
    ansatz = AnsatzSpec(max_order=1, max_degree=1, max_x_degree=1)
    kernel = kernel_search(ctx, ansatz)
    system = reduced_system_kernel(ctx, ansatz)
    kernel_coords = [kernel_vectors(ctx, ansatz, chi) for chi in kernel]
    system_coords = [kernel_vectors(ctx, ansatz, chi) for chi in system]
    assert linalg.in_span(kernel_coords, kernel_vectors(ctx, ansatz, constant))
    assert linalg.same_span(kernel_coords, system_coords)
    for chi in kernel:
        assert all(expr.is_zero() for _, expr in reduced_system_residuals(ctx, chi))
    for chi in system:
        assert reduced_derivative(ctx, chi).is_zero()
    # on the bench kernel-cpe ansatzes the two solves print the bench's
    # expected basis: the space alone fixes the free columns of the
    # nullspace and the scaling
    counts = {3: 5, 2: 4, 4: 2}  # basis size at each bench m
    for m, ansatz, stem in _bench_kernel_ansatzes("kernel-cpe"):
        ctx = ReductionContext(Setting.CPE, m)
        expected = (BENCH / "expected" / f"{stem}.txt").read_text(encoding="utf-8")
        kernel = "".join(print_tuple(chi) + "\n" for chi in kernel_search(ctx, ansatz))
        assert kernel == expected and expected.count("\n") == counts[m]
        system = reduced_system_kernel(ctx, ansatz)
        assert "".join(print_tuple(chi) + "\n" for chi in system) == expected
    _report(8, "joint-setting kernel matches the first-order system", started, 300.0)


def test_c09_constraint_reduction_laws():
    started = time.monotonic()
    rng = random.Random(109)
    pool = variable_pool(max_u_order=3, max_p_order=3)
    for setting in (Setting.CE, Setting.CPE):
        ctx = ReductionContext(setting, 3)
        for _ in range(50):
            f = random_expr(rng, pool, n_terms=2)
            g = random_expr(rng, pool, n_terms=2)
            reduced = reduce(ctx, f)
            assert reduce(ctx, reduced) == reduced
            assert reduce(ctx, f * g) == reduce(ctx, reduce(ctx, f) * reduce(ctx, g))
            for mu in (1, 2, 3):
                assert restricted_derivative(ctx, mu, reduced) == reduce(
                    ctx, total_derivative(mu, f)
                )
    _report(9, "reduction laws: idempotent, multiplicative, differential", started, 30.0)


def test_c10_transport_commutes_with_variational_derivative():
    started = time.monotonic()
    ctx = ReductionContext(Setting.CE, 3)
    rng = random.Random(110)
    pool = variable_pool(max_u_order=1, max_p_order=1, ctx=ctx)
    for _ in range(20):
        L = random_expr(rng, pool)
        lhs = reduced_variational_derivative(ctx, restricted_derivative(ctx, 1, L))
        rhs = reduced_derivative(ctx, reduced_variational_derivative(ctx, L))
        assert reduce(ctx, lhs.chi01 - rhs.chi01).is_zero()
        for key in set(lhs.chi_alpha) | set(rhs.chi_alpha):
            diff = lhs.chi_alpha.get(key, Expr.zero()) - rhs.chi_alpha.get(key, Expr.zero())
            assert reduce(ctx, diff).is_zero()
        for key in set(lhs.chi_p) | set(rhs.chi_p):
            diff = lhs.chi_p.get(key, Expr.zero()) - rhs.chi_p.get(key, Expr.zero())
            assert reduce(ctx, diff).is_zero()
    _report(10, "transported derivative commutes with the variational map", started, 30.0)


def test_c11_translation_and_shift_symmetries():
    started = time.monotonic()
    ctx = ReductionContext(Setting.CPE, 3)
    for lam in (1, 2, 3):
        report = symmetry_residuals(ctx, translation_characteristic(ctx, lam))
        assert report.passed
    report = symmetry_residuals(ctx, pressure_shift_characteristic(ctx))
    assert report.passed
    _report(11, "translations and the pressure shift are symmetries", started, 5.0)


def test_c12_io_round_trip_and_golden_stability():
    started = time.monotonic()
    corpus = (GOLDEN / "roundtrip_corpus.txt").read_text().splitlines()
    golden = (GOLDEN / "roundtrip_printed.txt").read_text().splitlines()
    assert len(corpus) == 50 and len(golden) == 50
    rendered = []
    for line in corpus:
        shape, text = line.split("\t")
        if shape == "expr":
            value = parse_expr(text, 3)
            out = print_expr(value)
            assert parse_expr(out, 3) == value
        else:
            value = parse_tuple(text, shape, 3)
            out = print_tuple(value)
            assert print_tuple(parse_tuple(out, shape, 3)) == out
        rendered.append(out)
    assert rendered == golden
    _report(12, "round-trip identity and byte-stable golden output", started, 2.0)
