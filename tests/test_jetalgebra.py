import ast
import copy
import dataclasses
import pickle
import random
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
    """f has the reference's terms, read through items(), and equals its Expr."""
    pairs = f.items()
    for _, c in pairs:
        assert type(c) is (int if c.denominator == 1 else Fraction), c
    assert {frozenset(mono): c for mono, c in pairs} == ref
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
    # other modules read coefficients through items() or unsorted_items(),
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
        pairs = [(v, rng.randint(1, 3)) for v in variables]
        return tuple(sorted(pairs, key=lambda ve: ve[0].sort_key()))

    cases = {"shared": 0, "disjoint": 0, "empty side": 0}
    for _ in range(600):
        shared = rng.sample(pool, rng.randint(0, 2))
        others = rng.sample([v for v in pool if v not in shared], rng.randint(0, 6))
        split = rng.randint(0, len(others))
        m1 = monomial(shared + others[:split])
        m2 = monomial(shared + others[split:])
        merged = jetalgebra._merge_monomials(m1, m2)
        assert merged == _dict_merge(m1, m2)
        assert jetalgebra._merge_monomials(m2, m1) == merged
        if not (m1 and m2):
            cases["empty side"] += 1
        elif shared:
            cases["shared"] += 1
            # the shared variables' exponents add
            exponents = dict(merged)
            for v, e in m1:
                assert exponents[v] == e + dict(m2).get(v, 0)
        else:
            cases["disjoint"] += 1
    assert min(cases.values()) >= 50, cases
