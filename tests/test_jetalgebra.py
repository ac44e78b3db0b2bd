import ast
import copy
import dataclasses
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetns import jetalgebra
from jetns.constraints import ReductionContext, Setting, reduce, restricted_derivative
from jetns.exprio import parse_expr, records_to_expr
from jetns.jetalgebra import (
    Expr,
    ExpressionTooLargeError,
    JetVariable,
    MAX_PRODUCT_TERMS,
    NU_VAR,
    T_VAR,
    _factors,
    pvar,
    u,
    uvar,
    x,
    xvar,
    nu,
    p,
)
from jetns.multiindex import MultiIndex
from jetns.reducedcomplex import AnsatzSpec, kernel_search
from jetns.totalderiv import total_derivative

from conftest import random_expr, random_point, variable_pool


def test_add_cancels_to_zero():
    f = u(1, (0, 0, 0))
    assert (f + (-f)).is_zero()
    assert f - f == Expr.zero()


def test_mul_collects_powers():
    assert x(1) * x(1) == x(1) ** 2


def test_coefficient_arithmetic():
    f = Fraction(2, 3) * p((0, 0, 0))
    g = 3 * nu
    assert f * g == 2 * nu * p((0, 0, 0))


def test_partial_derivative_power_rule():
    v = uvar(1, (1, 0, 0))
    f = Expr.var(v) ** 2
    assert f.diff(v) == 2 * Expr.var(v)


def test_partial_derivative_of_absent_variable():
    f = x(1) * nu
    assert f.diff(pvar((0, 0, 0))).is_zero()


def test_partial_derivative_coordinate():
    f = x(1) * u(2, (0, 0, 0))
    assert f.diff(xvar(1)) == u(2, (0, 0, 0))


def test_substitute_to_zero():
    v = uvar(1, (1, 0, 0))
    f = Expr.var(v) * p((0, 0, 0))
    assert f.subs({v: Expr.zero()}.get).is_zero()


def test_substitute_identity():
    f = x(1) ** 3 + p((0, 0, 0))
    assert f.subs({xvar(1): x(1)}.get) == f


def test_substitute_nothing_returns_the_expression():
    # an Expr is never mutated, so a map that replaces no variable shares it
    f = x(1) ** 3 * p((0, 0, 0)) + Fraction(1, 2) * x(1) * p((0, 0, 0)) + 2
    assert f.subs(lambda v: None) is f
    assert f.subs({xvar(2): x(1)}.get) is f
    asked = []
    assert f.subs(lambda v: asked.append(v)) is f
    assert sorted(asked, key=lambda v: v.sort_key()) == [xvar(1), pvar((0, 0, 0))]
    g = x(2) ** 3 * p((0, 0, 0)) + Fraction(1, 2) * x(2) * p((0, 0, 0)) + 2
    assert f.subs({xvar(1): x(2)}.get) == g


def test_substitute_through_powers():
    v = pvar((0, 0, 0))
    f = Expr.var(v) ** 2
    assert f.subs({v: u(1, (0, 0, 0))}.get) == u(1, (0, 0, 0)) ** 2


def test_substitute_single_pass():
    # the replacement may mention the substituted variable without looping
    v = pvar((0, 0, 0))
    f = Expr.var(v)
    assert f.subs({v: Expr.var(v) + 1}.get) == Expr.var(v) + 1


def test_substitute_simultaneous_swap():
    # every variable is mapped at once, so a swap does not collapse
    a, b = xvar(1), pvar((0, 0, 0))
    f = Expr.var(a) ** 2 * Expr.var(b) + 3 * Expr.var(b)
    swapped = f.subs({a: Expr.var(b), b: Expr.var(a)}.get)
    assert swapped == Expr.var(b) ** 2 * Expr.var(a) + 3 * Expr.var(a)
    assert swapped.subs({a: Expr.var(b), b: Expr.var(a)}.get) == f


@pytest.mark.parametrize("c", [0, 1, -7, Fraction(2, 3), Fraction(-5, 1), Fraction(4, 2)])
def test_constant_hashes_like_its_value(c):
    # equal values must hash equally; Expr.const(c) == c already holds
    assert Expr.const(c) == c
    assert hash(Expr.const(c)) == hash(c)
    assert len({Expr.const(c), c}) == 1


def test_evaluate_examples():
    v = uvar(1, (0, 0, 0))
    assert (Expr.var(v) ** 2).evaluate({v: Fraction(3)}) == 9
    assert Expr.zero().evaluate({}) == 0
    f = nu * p((0, 0, 0))
    value = f.evaluate({NU_VAR: Fraction(1), pvar((0, 0, 0)): Fraction(1, 2)})
    assert value == Fraction(1, 2)


def test_evaluate_missing_variable():
    f = nu * x(1)
    with pytest.raises(ValueError, match="nu"):
        f.evaluate({xvar(1): Fraction(1)})


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        x(1) ** -1


def test_pow_multiplication_count(monkeypatch):
    # square-and-multiply needs floor(log2 n) squarings and popcount(n) - 1
    # products, and no multiplication at all for n <= 1
    mul = Expr.__mul__
    calls = 0

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Expr, "__mul__", counting_mul)
    e = x(1) + 2 * u(2, (0, 1, 0))
    expected_value = Expr.const(1)
    for n in range(18):
        calls = 0
        value = e ** n
        expected_calls = 0 if n <= 1 else n.bit_length() - 1 + bin(n).count("1") - 1
        assert calls == expected_calls, n
        assert value == expected_value, n
        expected_value = mul(expected_value, e)


def test_canonical_uniqueness():
    # built two different ways, identical monomial maps
    a = (x(1) + p((0, 0, 0))) * (x(1) - p((0, 0, 0)))
    b = x(1) ** 2 - p((0, 0, 0)) ** 2
    assert a == b
    assert (a - b).is_zero()


def test_constructor_gives_the_canonical_form():
    # the library constructor orders each monomial's factors and sums the
    # monomials that then coincide, so equality stays decidable
    x1, x2, u1 = xvar(1), xvar(2), uvar(1, (0, 1, 0))
    assert (Expr({((x2, 1), (x1, 1)): 1}) - Expr({((x1, 1), (x2, 1)): 1})).is_zero()
    assert Expr({((x2, 1), (x1, 1)): 1}) == x(1) * x(2)
    assert str(Expr({((u1, 2), (x2, 1)): 1, ((x2, 1), (u1, 2)): Fraction(1, 2)})) == (
        "3/2*x2*u1_[0,1,0]^2"
    )
    assert Expr({((x2, 1), (x1, 1)): 1, ((x1, 1), (x2, 1)): -1}) == Expr.zero()


@pytest.mark.parametrize(
    "mono",
    [((xvar(1), 1), (xvar(1), 1)), ((xvar(1), 0),), ((xvar(2), 1), (xvar(1), -1))],
)
def test_constructor_rejects_non_canonical_monomials(mono):
    # x1*x1 and x1^0 would differ from their canonical equals x1^2 and 1
    with pytest.raises(ValueError, match="x1"):
        Expr({mono: 3})


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(4242)
    pool = variable_pool(allow_nu=True)
    for _ in range(25):
        f = random_expr(rng, pool)
        g = random_expr(rng, pool)
        point = random_point(rng, set(f.variables()) | set(g.variables()))
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_partial_derivative_leibniz_and_commutes():
    rng = random.Random(777)
    pool = variable_pool()
    v, w = uvar(1, (0, 0, 0)), pvar((0, 1, 0))
    for _ in range(20):
        f = random_expr(rng, pool)
        g = random_expr(rng, pool)
        assert (f * g).diff(v) == f.diff(v) * g + f * g.diff(v)
        assert f.diff(v).diff(w) == f.diff(w).diff(v)


def _leibniz_oracle(f: Expr, images: dict) -> Expr:
    """The derivation v -> images[v] of f, term by term from items() and Expr products."""
    total = Expr.zero()
    for pairs, coeff in f.items():
        for k, (v, e) in enumerate(pairs):
            rest = tuple((w, n - (j == k)) for j, (w, n) in enumerate(pairs) if n - (j == k))
            total = total + Expr({rest: coeff * e}) * images.get(v, Expr.zero())
    return total


def test_derive_rescales_its_running_sum_to_the_images_common_denominator(monkeypatch):
    # images over 2, 3 and 1 meet in one running sum over one denominator,
    # which must grow mid-loop; f brings its own denominator on top
    images = {
        xvar(1): Fraction(1, 2) * x(2) - Fraction(1, 2),
        xvar(2): Fraction(1, 3) * x(1) * x(3) + Fraction(2, 3),
        xvar(3): 2 * nu,
        NU_VAR: Fraction(1, 2) * x(3) ** 2 + Fraction(1, 3),
    }
    rng = random.Random(23)
    pool = [xvar(1), xvar(2), xvar(3), NU_VAR]
    fs = [Fraction(3, 5) * x(1) ** 2 * x(2) + Fraction(1, 7) * x(2) ** 3 * x(3) - x(3) * nu + Fraction(5, 4)]
    fs += [random_expr(rng, pool, n_terms=4) for _ in range(12)]
    real = jetalgebra._common_denominator
    for f in fs:
        calls = []
        monkeypatch.setattr(
            jetalgebra, "_common_denominator", lambda data, den, d: calls.append((den, d)) or real(data, den, d)
        )
        got = jetalgebra.derive(f, None, lambda v, _: images.get(v, Expr.zero()))
        monkeypatch.undo()
        assert got == _leibniz_oracle(f, images)
        if f is fs[0]:
            assert any(den != 1 and den % d for den, d in calls)  # a rescale inside the loop


@st.composite
def small_exprs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    return random_expr(rng, variable_pool(max_u_order=1, max_p_order=1))


@settings(max_examples=40, deadline=None)
@given(small_exprs(), small_exprs(), small_exprs())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * Expr.const(1) == a
    assert (a * Expr.zero()).is_zero()


# -- the product guard ----------------------------------------------------


def test_product_guard_refuses_before_any_work(monkeypatch):
    f = Expr({((xvar(1), k),): 1 for k in range(1, 401)})
    g = Expr({((xvar(2), k),): 1 for k in range(1, 301)})
    merges = 0
    merge = jetalgebra._merge_monomials

    def counting_merge(m1, m2):
        nonlocal merges
        merges += 1
        return merge(m1, m2)

    monkeypatch.setattr(jetalgebra, "_merge_monomials", counting_merge)
    with pytest.raises(ExpressionTooLargeError, match="120000 term pairs") as err:
        f * g
    assert isinstance(err.value, ValueError)
    assert err.value.pairs == 120_000
    assert merges == 0
    assert MAX_PRODUCT_TERMS == 10**5


def test_product_guard_bounds_the_pair_count(monkeypatch):
    monkeypatch.setattr(jetalgebra, "MAX_PRODUCT_TERMS", 6)
    a = x(1) + x(2) + x(3)
    assert a * (x(1) + 1) == x(1) ** 2 + x(1) * x(2) + x(1) * x(3) + a
    with pytest.raises(ExpressionTooLargeError):
        a * a
    with pytest.raises(ExpressionTooLargeError):
        a ** 2


# -- the degree and constant-power bounds -------------------------------------


def test_power_refuses_above_the_degree_bound_before_any_product(monkeypatch):
    monkeypatch.setattr(jetalgebra, "MAX_DEGREE", 6)
    assert str(x(1) ** 6) == "x1^6" and str((x(1) * x(2) ** 2) ** 2) == "x1^2*x2^4"
    cases = [(x(1), 7, 7), (x(1) * x(2), 4, 8), (x(1) + x(2) ** 3 + 1, 3, 9)]
    merges = []
    merge = jetalgebra._merge_monomials
    monkeypatch.setattr(jetalgebra, "_merge_monomials", lambda a, b: merges.append(1) or merge(a, b))
    for base, n, degree in cases:
        with pytest.raises(ExpressionTooLargeError, match=f"degree {degree} exceeds the degree bound 6$"):
            base ** n
    assert merges == []


def test_product_refuses_above_the_degree_bound_before_any_product(monkeypatch):
    # over Q the degree of a product is the sum of its factors' degrees, so
    # the check is exact: degree 6 passes, and a product of degree 7 or more
    # raises before a single monomial is merged, also inside subs
    monkeypatch.setattr(jetalgebra, "MAX_DEGREE", 6)
    assert str((x(1) ** 2 + 1) * (x(2) ** 4 - x(1))) == "-x1 - x1^3 + x2^4 + x1^2*x2^4"
    assert str(Expr.zero() * x(1) ** 6) == "0" and str(3 * x(1) ** 6) == "3*x1^6"
    cases = [
        (x(1) ** 4, x(2) ** 3, 7),
        (x(1) * x(2) ** 2 + x(3), 1 - x(2) ** 2 * x(3) ** 3, 8),
    ]
    pair, swap = x(1) * x(2), {xvar(1): x(3) ** 4, xvar(2): x(3) ** 3}.get
    merges = []
    merge = jetalgebra._merge_monomials
    monkeypatch.setattr(jetalgebra, "_merge_monomials", lambda a, b: merges.append(1) or merge(a, b))
    for f, g, degree in cases:
        with pytest.raises(ExpressionTooLargeError, match=f"^a monomial of degree {degree} exceeds the degree bound 6$"):
            f * g
    with pytest.raises(ExpressionTooLargeError, match="^a monomial of degree 7 exceeds the degree bound 6$"):
        pair.subs(swap)  # each power passed the bound; their product does not
    assert merges == []


def test_constructor_refuses_a_monomial_above_the_degree_bound(monkeypatch):
    monkeypatch.setattr(jetalgebra, "MAX_DEGREE", 6)
    assert Expr({((xvar(1), 2), (xvar(2), 4)): 1}) == x(1) ** 2 * x(2) ** 4
    with pytest.raises(ExpressionTooLargeError, match="degree 7 exceeds the degree bound 6$"):
        Expr({((xvar(1), 3), (xvar(2), 4)): 1})
    with pytest.raises(ExpressionTooLargeError, match="degree bound 6$"):
        records_to_expr([{"num": 1, "den": 1, "factors": [["x1", 7]]}], 3)


def test_the_degree_bound_admits_its_own_degree():
    assert jetalgebra.MAX_DEGREE == 10_000
    assert x(1) ** 10_000 == Expr({((xvar(1), 10_000),): 1})
    with pytest.raises(ExpressionTooLargeError, match="degree 10001 exceeds the degree bound 10000$"):
        x(1) ** 10_001
    assert x(1) ** 9_999 * x(1) == x(1) ** 10_000
    with pytest.raises(ExpressionTooLargeError, match="^a monomial of degree 20000 exceeds the degree bound 10000$"):
        x(1) ** 10_000 * x(1) ** 10_000


def test_power_refuses_above_the_bit_bound_before_any_product(monkeypatch):
    monkeypatch.setattr(jetalgebra, "MAX_COEFFICIENT_BITS", 64)
    assert Expr.const(2) ** 64 == 2**64
    assert Expr.const(Fraction(-1, 3)) ** 40 == Fraction(-1, 3) ** 40
    assert (2**16 * x(1)) ** 4 == 2**64 * x(1) ** 4
    quarter = Fraction(1, 4) * x(1) + x(2) - 1
    assert quarter ** 32 == quarter ** 16 * quarter ** 16
    # a base of 0 or +-1 never grows, whatever the exponent, and a base whose
    # coefficients are all +-1 over 1 is left to the degree and term bounds
    assert Expr.const(-1) ** (10**30 + 1) == -1
    assert Expr.const(1) ** 10**30 == 1 and Expr.zero() ** 10**30 == 0
    assert (x(1) - x(2)) ** 100 == (x(1) - x(2)) ** 50 * (x(1) - x(2)) ** 50
    products = []
    mul = Expr.__mul__
    monkeypatch.setattr(Expr, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    cases = [
        (Expr.const(2), 65), (Expr.const(Fraction(1, 3)), 41),
        (Expr.const(Fraction(3, 2)), 10**30), (Expr.const(-7), 10**400),
        # a one-term base never trips the term bound, so the bit bound must stop it
        (2**16 * x(1), 5), (Fraction(1, 2**33) * x(1), 2), (x(1) - 3 * x(2) + 1, 41),
    ]
    for base, n in cases:
        with pytest.raises(ExpressionTooLargeError, match="more than the bound of 64 bits$"):
            base ** n
    assert products == []


def test_the_bit_bound_admits_large_exact_constants():
    assert jetalgebra.MAX_COEFFICIENT_BITS == 10**6
    assert Expr.const(2) ** 20_000 == 2**20_000
    with pytest.raises(ExpressionTooLargeError, match="bound of 1000000 bits$"):
        Expr.const(2) ** (10**6 + 1)


# -- the coefficient representation -----------------------------------------

half, third = Fraction(1, 2), Fraction(1, 3)

# each case yields expressions holding both integral and non-integral
# coefficients, produced by the named operation
COEFFICIENT_CASES = {
    "parse": lambda: [parse_expr("4/2*x1 + 1/3*u1_[0,0,0] - 6/3 + 5/10*p_[0,0,0]", 3)],
    "records_to_expr": lambda: [
        records_to_expr(
            [
                {"num": 4, "den": 2, "factors": [["x1", 1]]},
                {"num": 3, "den": 6, "factors": [["x1", 1]]},
                {"num": 6, "den": 3, "factors": [["nu", 1]]},
                {"num": 1, "den": 3, "factors": []},
            ],
            3,
        )
    ],
    "const": lambda: [Expr.const(Fraction(4, 2)), Expr.const(half) + Expr.const(Fraction(3, 2)) * nu],
    "add": lambda: [half * x(1) + half * x(1) + third],
    "sub": lambda: [Fraction(3, 2) * x(1) - half * x(1) - third * nu],
    "mul": lambda: [(Fraction(2, 3) * x(1) + half) * (Fraction(3, 2) * x(2) + 1)],
    "pow": lambda: [(half * x(1) + 2) ** 3],
    "diff": lambda: [(third * x(1) ** 3 + Fraction(1, 4) * x(1) * nu).diff(xvar(1))],
    "subs": lambda: [(Fraction(2, 3) * x(1) + Fraction(1, 5) * x(2)).subs({xvar(1): Fraction(3, 2) * nu}.get)],
    "derive": lambda: [
        total_derivative(1, half * u(1, (0, 0, 0)) ** 2 + third * x(1) * p((0, 0, 0))),
        restricted_derivative(ReductionContext(Setting.CPE, 3), 1, half * p((1, 0, 0)) ** 2 + third * x(1)),
    ],
    "reduce": lambda: [reduce(ReductionContext(Setting.CPE, 3), half * p((2, 0, 0)) + third * u(1, (1, 0, 0)))],
    "kernel_basis": lambda: [
        expr
        for chi in kernel_search(ReductionContext(Setting.CPE, 2), AnsatzSpec(1, 2, 1))
        for _, expr in chi.items()
    ],
}


@pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
def test_integral_coefficients_are_ints(case):
    forms = set()
    for f in COEFFICIENT_CASES[case]():
        for mono, c in f.items():
            expected = int if c.denominator == 1 else Fraction
            assert type(c) is expected, (case, mono, c)
            forms.add(type(c))
    assert int in forms
    if case != "kernel_basis":  # a kernel basis is scaled to integers
        assert Fraction in forms


def test_one_stored_form_per_rational():
    assert Expr.const(Fraction(4, 2))._terms == Expr.const(2)._terms
    assert type(Expr.const(Fraction(4, 2)).constant_value()) is int
    assert type(Expr({(): Fraction(-6, 3)}).constant_value()) is int
    assert type(Expr.const(Fraction(2, 3)).constant_value()) is Fraction
    assert Expr.const(Fraction(4, 2)) == Expr.const(2) == 2


def _assert_canonical(f):
    """Integer numerators over one denominator, coprime taken together."""
    nums = list(f._terms.values())
    assert type(f._den) is int and f._den >= 1, f._den
    assert all(type(c) is int and c != 0 for c in nums), nums
    assert gcd(f._den, *nums) == 1, (f._den, nums)
    if f.is_zero():
        assert f._den == 1


MIXED_DENOMINATORS = (1, 1, 2, 3, 4, 6)


def _mixed_expr(rng, pool, n_terms):
    """A random expression whose coefficients have denominators in MIXED_DENOMINATORS."""
    terms = {}
    for _ in range(n_terms):
        mono = tuple((v, rng.randint(1, 2)) for v in rng.sample(pool, rng.randint(0, 2)))
        terms[mono] = Fraction(rng.randint(-6, 6) or 1, rng.choice(MIXED_DENOMINATORS))
    return Expr(terms)


def test_named_cases_of_the_canonical_form():
    x1, x2 = x(1), x(2)
    product = (half * x1) * (2 * x2)
    assert product._den == 1 and product == x1 * x2
    assert half * x1 + half * x1 == x1
    assert (half * x1 + half * x1)._den == 1
    zero = third * x1 - third * x1
    assert zero == 0 and zero.is_zero() and zero._den == 1
    assert (half * x1 + third * x2)._den == 6
    for f in (product, half * x1 + half * x1, zero, half * x1 + third * x2):
        _assert_canonical(f)


def test_every_operation_keeps_the_canonical_form():
    rng = random.Random(1717)
    pool = [xvar(1), xvar(2), NU_VAR, uvar(1, (0, 1)), pvar((1, 0))]
    for _ in range(150):
        f = _mixed_expr(rng, pool, rng.randint(0, 4))
        g = _mixed_expr(rng, pool, rng.randint(0, 4))
        c = Fraction(rng.randint(-6, 6), rng.choice(MIXED_DENOMINATORS))
        images = {v: _mixed_expr(rng, pool, rng.randint(0, 3)) for v in rng.sample(pool, 2)}
        results = [
            f, g, Expr.const(c), Expr.const(c.numerator), f + g, f - g, f - f, -f, f * g,
            f * c, c - f, f ** rng.randint(0, 3), f.subs(images.get), f.diff(rng.choice(pool)),
            total_derivative(1, f), jetalgebra.expr_sum([f, g, -f, g * c]),
            jetalgebra.derive(f, None, lambda v, _: images.get(v, Expr.zero())),
        ]
        for result in results:
            _assert_canonical(result)


# -- an arithmetic oracle that shares no code with Expr --------------------------
# A reference polynomial maps frozenset({(variable, exponent), ...}) to a
# nonzero Fraction.


def _ref_add(f, g):
    out = dict(f)
    for mono, c in g.items():
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def _ref_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            exponents = dict(m1)
            for v, e in m2:
                exponents[v] = exponents.get(v, 0) + e
            mono = frozenset(exponents.items())
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def _ref_pow(f, n):
    out = {frozenset(): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, f)
    return out


def _ref_subs(f, images):
    out = {}
    for mono, c in f.items():
        term = {frozenset(): c}
        for v, e in mono:
            factor = images.get(v, {frozenset({(v, 1)}): Fraction(1)})
            term = _ref_mul(term, _ref_pow(factor, e))
        out = _ref_add(out, term)
    return out


def _ref_evaluate(f, point):
    total = Fraction(0)
    for mono, c in f.items():
        for v, e in mono:
            c *= point[v] ** e
        total += c
    return total


def _random_ref(rng, pool, n_terms):
    ref = {}
    for _ in range(n_terms):
        mono = frozenset((v, rng.randint(1, 2)) for v in rng.sample(pool, rng.randint(0, 2)))
        coeff = Fraction(rng.randint(-6, 6) or 1, rng.choice(MIXED_DENOMINATORS))
        ref = _ref_add(ref, {mono: coeff})
    return ref


def _as_expr(ref):
    return Expr({tuple(mono): c for mono, c in ref.items()})


def _assert_matches(f, ref):
    """f has the reference's terms, read through items(), rebuilds from its factors and
    equals its Expr."""
    pairs = f.items()
    for _, c in pairs:
        assert type(c) is (int if c.denominator == 1 else Fraction), c
    assert {frozenset(mono): c for mono, c in pairs} == ref
    assert Expr(dict(pairs)) == f
    expected = _as_expr(ref)
    assert f == expected and hash(f) == hash(expected)


def test_arithmetic_matches_a_fraction_dict_oracle():
    rng = random.Random(2024)
    pool = [xvar(1), xvar(2), NU_VAR, uvar(2, (1, 0)), pvar((0, 1))]
    for _ in range(200):
        rf = _random_ref(rng, pool, rng.randint(0, 4))
        rg = _random_ref(rng, pool, rng.randint(0, 4))
        f, g = _as_expr(rf), _as_expr(rg)
        _assert_matches(f, rf)
        _assert_matches(f + g, _ref_add(rf, rg))
        _assert_matches(f * g, _ref_mul(rf, rg))
        n = rng.randint(0, 3)
        _assert_matches(f ** n, _ref_pow(rf, n))
        ref_images = {v: _random_ref(rng, pool, rng.randint(0, 3)) for v in rng.sample(pool, 2)}
        images = {v: _as_expr(ref) for v, ref in ref_images.items()}
        _assert_matches(f.subs(images.get), _ref_subs(rf, ref_images))
        point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in pool}
        assert f.evaluate(point) == _ref_evaluate(rf, point)


def test_only_jetalgebra_reads_the_stored_form():
    # other modules read coefficients through items() or _unsorted_items(),
    # so the stored form stays a decision of jetalgebra alone
    package = Path(jetalgebra.__file__).parent
    scanned, readers = [], []
    for path in sorted(package.glob("*.py")):
        if path.name == "jetalgebra.py":
            continue
        scanned.append(path.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = node.attr if isinstance(node, ast.Attribute) else getattr(node, "value", None)
            if isinstance(node, (ast.Attribute, ast.Constant)) and named in ("_terms", "_den"):
                readers.append(f"{path.name}:{node.lineno}")
    assert "reducedcomplex.py" in scanned and len(scanned) >= 10
    assert readers == []


# -- cached variable keys -----------------------------------------------------


def test_cached_variable_keys_match_a_fresh_variable():
    fresh = JetVariable("u", 3, MultiIndex((1, 0, 2)))
    built = [
        uvar(3, (1, 0, 2)),
        uvar(3, MultiIndex((1, 0, 1)).bump(3)),
        dataclasses.replace(uvar(2, (1, 0, 2)), mu=3),
        dataclasses.replace(uvar(3, (0, 0, 0)), index=MultiIndex((1, 0, 2))),
        parse_expr("u3_[1,0,2]", 3).variables()[0],
        records_to_expr([{"num": 1, "den": 1, "factors": [["u3_[1,0,2]", 1]]}], 3).variables()[0],
    ]
    for v in built:
        assert v == fresh
        assert v is fresh
        assert hash(v) == hash(fresh)
        assert v.sort_key() == fresh.sort_key()
    assert pvar(MultiIndex((0, 0)).bump(2)).sort_key() == JetVariable("p", 0, MultiIndex((0, 1))).sort_key()
    assert repr(uvar(2, (1, 0))) == "JetVariable(kind='u', mu=2, index=MultiIndex(entries=(1, 0)))"
    # a component number equal to an int is stored as that int, whichever comes first
    assert JetVariable("x", 97.0) is xvar(97)
    assert xvar(97).label() == "x97"


def test_copies_are_the_interned_variable():
    for v in (uvar(2, (0, 1, 1)), pvar((1, 0)), xvar(3), NU_VAR, T_VAR):
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        assert pickle.loads(pickle.dumps(v)) is v
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.mu = 5
    f = u(1, (1, 0)) * p((0, 2)) + x(2)
    assert pickle.loads(pickle.dumps(f)) == f
    assert copy.deepcopy(f) == f


def test_a_product_above_the_degree_bound_still_copies():
    # subs merges a kept factor with an image unchecked against MAX_DEGREE,
    # so a copy must not check either
    f = (x(1) ** 9_999 * x(2)).subs({xvar(2): x(1) ** 2}.get) - Fraction(2, 3) * x(2)
    assert f.items()[-1] == (((xvar(1), 10_001),), 1)  # the highest degree sorts last
    assert copy.deepcopy(f) == f
    assert pickle.loads(pickle.dumps(f)) == f


def test_a_failing_image_names_the_least_variable_whatever_the_creation_order():
    # ranks follow creation; the error must follow the sort key
    late, early = pvar((8, 8, 3)), pvar((8, 8, 2))  # created against key order
    assert late._rank < early._rank and early._key < late._key
    f = Expr.var(late) * x(1) + Expr.var(early) ** 2
    asked = []

    def refuse(v, *arg):
        asked.append(v)
        if v.kind == "p":
            raise ValueError(v.label())
        return None if not arg else Expr.zero()

    with pytest.raises(ValueError, match=r"^p_\[8,8,2\]$"):
        f.subs(refuse)
    assert asked[-1] is early
    with pytest.raises(ValueError, match=r"^p_\[8,8,2\]$"):
        jetalgebra.derive(f, 0, refuse)
    ctx = ReductionContext(Setting.CE, 2)  # a jet of dimension 3 is refused
    with pytest.raises(ValueError, match=r"^dimension mismatch: p_\[8,8,2\] "):
        reduce(ctx, f)
    with pytest.raises(ValueError, match=r"^dimension mismatch: p_\[8,8,2\] "):
        restricted_derivative(ctx, 1, f)


def test_a_pickled_expression_survives_another_creation_order():
    # a monomial stores ranks, which follow creation order and so differ
    # between processes; a pickle holds the factor pairs instead
    a, b = uvar(3, (7, 0, 5)), pvar((9, 9, 1))  # created here first, a before b
    assert a._rank < b._rank
    f = Expr.var(a) * Expr.var(b) ** 2 - Fraction(1, 3) * x(2) * nu + 5
    child = (
        "import pickle, sys\n"
        "from jetns.jetalgebra import pvar, uvar\n"
        "b, a = pvar((9, 9, 1)), uvar(3, (7, 0, 5))\n"
        "assert b._rank < a._rank\n"
        "print(pickle.loads(sys.stdin.buffer.read()))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child], input=pickle.dumps(f), capture_output=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == f"{f}\n" == "5 - 1/3*nu*x2 + u3_[7,0,5]*p_[9,9,1]^2\n"


def test_concurrent_interning_gives_each_variable_its_own_rank():
    # a rank is read from the rank table and appended to it; threads that
    # intern at once must neither share a rank nor skip one
    indices = [(a, b, 90 + c) for a in range(4) for b in range(5) for c in range(10)]

    def intern(seed):
        # each variable is used at once, as a product would use it; a lookup
        # that found a variable before its rank was set would raise here
        order = indices[:]
        random.Random(seed).shuffle(order)
        return [Expr.var(pvar(i)) and pvar(i) for i in order]

    first = len(jetalgebra._VARIABLES)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(intern, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    made = {v: None for result in results for v in result}
    assert len(made) == len(indices)
    assert sorted(v._rank for v in made) == list(range(first, first + len(indices)))
    assert all(jetalgebra._VARIABLES[v._rank] is v for v in made)


def test_an_interned_variable_is_ranked_before_a_lookup_can_find_it(monkeypatch):
    # the lookup outside the lock must never return a variable whose rank is
    # not yet set; the rank is read from len() of the rank table, so check
    # there that every variable a lookup can reach is ranked
    table = jetalgebra._VARIABLES
    unranked = []

    class Watched:
        def __len__(self):
            unranked.extend(v for v in JetVariable._interned.values() if not hasattr(v, "_rank"))
            return len(table)

        def append(self, v):
            table.append(v)

    monkeypatch.setattr(jetalgebra, "_VARIABLES", Watched())
    made = [pvar((7, 7, 7, c)) for c in range(3)]
    assert len({v._rank for v in made}) == 3 and unranked == []
    assert all(table[v._rank] is v for v in made)


@pytest.mark.parametrize(
    "kind, mu, index",
    [
        ("w", 1, None),
        ("U", 1, MultiIndex((0, 1))),
        ("x", 0, None),
        ("u", -1, MultiIndex((1, 0))),
        ("u", 2, None),
        ("p", 0, None),
        ("x", 1, MultiIndex((0, 0))),
        ("nu", 0, MultiIndex((0,))),
    ],
)
def test_invalid_variable_is_rejected_and_not_interned(kind, mu, index):
    before = dict(JetVariable._interned)
    with pytest.raises(ValueError):
        JetVariable(kind, mu, index)
    assert JetVariable._interned == before


def test_variable_sort_keys_are_unchanged():
    # the keys that order every printed monomial
    assert uvar(3, (1, 0, 2)).sort_key() == (3, 3, (3, (1, 0, 2)))
    assert pvar((0, 1)).sort_key() == (4, 0, (1, (0, 1)))
    assert xvar(2).sort_key() == (2, 2, ((), ()))
    assert NU_VAR.sort_key() == (0, 0, ((), ()))
    assert T_VAR.sort_key() == (1, 0, ((), ()))


def test_monomial_key_is_the_degree_then_the_factor_keys():
    # the canonical print and column order: ranks never enter it, and a
    # sorted tuple of repeated ranks or keys would put x1^2 before x1*x2
    f = u(2, (0, 1, 0)) * x(1) ** 2 * nu
    pairs = ((NU_VAR, 1), (xvar(1), 2), (uvar(2, (0, 1, 0)), 1))
    assert f.items() == [(pairs, 1)]
    [(mono, _)] = f._unsorted_items()
    assert jetalgebra._monomial_key(mono) == (4, tuple((v.sort_key(), e) for v, e in pairs))
    assert str(x(1) ** 2 + x(1) * x(2)) == "x1*x2 + x1^2"
    assert str(x(2) * x(1) ** 2 + x(1) * x(2) ** 2 + u(1, (0, 0, 0)) ** 3) == (
        "x1*x2^2 + x1^2*x2 + u1_[0,0,0]^3"
    )


def test_factors_are_in_key_order_whatever_the_creation_order():
    # ranks follow creation order: each group of three new variables is
    # created in another permutation of its key order, and every exponent
    # pattern up to 2 is read back
    for group, order in enumerate(itertools.permutations(range(3))):
        created = [pvar((77, group, k)) for k in order]
        by_key = sorted(created, key=JetVariable.sort_key)
        assert [by_key.index(v) for v in created] == list(order)
        assert [v._rank for v in created] == sorted(v._rank for v in created)
        for exponents in itertools.product(range(3), repeat=3):
            pairs = tuple((v, e) for v, e in zip(by_key, exponents) if e)
            assert Expr({pairs: 1}).items() == [(pairs, 1)]


def test_items_are_factor_pairs_in_canonical_order():
    f = x(1) ** 2 * u(2, (0, 1, 0)) + Fraction(3, 2)
    assert f.items() == [((), Fraction(3, 2)), (((xvar(1), 2), (uvar(2, (0, 1, 0)), 1)), 1)]


def test_items_rebuild_the_expression_and_key_its_coefficients():
    rng = random.Random(2028)
    pool = variable_pool(allow_nu=True, allow_t=True)
    for _ in range(300):
        f = random_expr(rng, pool, n_terms=rng.randint(0, 5), max_factors=4, max_exponent=3)
        assert Expr(dict(f.items())) == f
        for pairs, c in f.items():
            assert f.coefficient(pairs) == c
            assert f.coefficient(tuple(reversed(pairs))) == c  # any order, as Expr(terms) takes
        assert f.coefficient(((xvar(1), 9),)) == 0


# Prints repr(parse_expr(text, 3).items()) for each text of argv[2], after
# interning the variables given as JSON in argv[1] in that order.
_ITEMS_CHILD = """
import json, sys
from jetns.exprio import parse_expr
from jetns.jetalgebra import JetVariable
from jetns.multiindex import MultiIndex

for kind, mu, entries in json.loads(sys.argv[1]):
    JetVariable(kind, mu, None if entries is None else MultiIndex(tuple(entries)))
for text in json.loads(sys.argv[2]):
    print(repr(parse_expr(text, 3).items()))
"""


def test_items_do_not_depend_on_creation_order():
    # items() sorts by the variables' sort keys, so its text is the same when
    # every variable is interned first in reverse sort order
    rng = random.Random(77)
    pool = variable_pool(allow_nu=True, allow_t=True)
    exprs = [random_expr(rng, pool, n_terms=6, max_factors=4, max_exponent=3) for _ in range(20)]
    touched = sorted(
        {v for f in exprs for v in f.variables() if v.kind not in ("nu", "t")},  # interned on import
        key=JetVariable.sort_key, reverse=True,
    )
    assert len(touched) > 20

    def child(first):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _ITEMS_CHILD, json.dumps(first), json.dumps([str(f) for f in exprs])],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.encode()

    spelled = [[v.kind, v.mu, v.index and list(v.index.entries)] for v in touched]
    expected = "".join(f"{f.items()!r}\n" for f in exprs).encode()
    assert child([]) == child(spelled) == expected


# -- the monomial merge -------------------------------------------------------


def _dict_merge(m1, m2):
    """Reference merge: sum the exponents in a dict, then sort by variable key."""
    merged = {}
    for v, e in m1 + m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items(), key=lambda ve: ve[0].sort_key()))


def test_merge_monomials_matches_dict_and_sort():
    rng = random.Random(12)
    pool = variable_pool(m=3, allow_nu=True, allow_t=True)

    def monomial(variables):
        """The sorted (variable, exponent) pairs and the packed monomial Expr builds from them."""
        pairs = [(v, rng.randint(1, 3)) for v in variables]
        pairs = tuple(sorted(pairs, key=lambda ve: ve[0].sort_key()))
        [(packed, _)] = Expr({pairs: 1})._unsorted_items()
        assert _factors(packed) == pairs
        return pairs, packed

    cases = {"shared": 0, "disjoint": 0, "empty side": 0}
    for _ in range(600):
        shared = rng.sample(pool, rng.randint(0, 2))
        others = rng.sample([v for v in pool if v not in shared], rng.randint(0, 6))
        split = rng.randint(0, len(others))
        m1, p1 = monomial(shared + others[:split])
        m2, p2 = monomial(shared + others[split:])
        merged = jetalgebra._merge_monomials(p1, p2)
        assert _factors(merged) == _dict_merge(m1, m2)
        assert jetalgebra._merge_monomials(p2, p1) == merged
        if not (m1 and m2):
            cases["empty side"] += 1
        elif shared:
            cases["shared"] += 1
            # the shared variables' exponents add
            exponents = dict(_factors(merged))
            for v, e in m1:
                assert exponents[v] == e + dict(m2).get(v, 0)
        else:
            cases["disjoint"] += 1
    assert min(cases.values()) >= 50, cases
