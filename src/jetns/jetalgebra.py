"""Canonical polynomial expressions in jet variables.

The function algebra is realized as sparse multivariate polynomials over
exact rationals.  Variables are the space coordinates x^mu, the velocity
jets u^mu indexed by a multi-index, the pressure jets p indexed likewise,
the viscosity symbol nu and the time symbol t.  Only finitely many
variables occur in any expression, monomial maps are kept free of zero
coefficients, and equal expressions have identical internal maps and
denominators, so zero testing is decidable and printing is deterministic.

A jet variable, like its multi-index, is one object per value; equality
is identity; interned for the process.  Interning gives each new variable
the next integer rank, and a monomial is the sorted tuple of its
variables' ranks, each repeated by its exponent (packed exponents:
Monagan & Pearce, CASC 2007), so a product of monomials is
tuple(sorted(a + b)), run in C, and hashing and comparing a monomial run
no Python code.  Ranks follow creation order, which differs from one
program to the next, so they stay private: Expr(terms), items() and
coefficient() speak (variable, exponent) pairs, which _factors() reads
off a monomial in sort-key order; printing, records, column order and
variables() go through it or the sort key.  Identity hashes change from
run to run too, so nothing printed may follow the order of a set of
variables.

An expression stores int numerators over one denominator (FLINT's
fmpq_poly; Geddes, Czapor & Labahn, Algorithms for Computer Algebra,
ch. 2): _terms maps monomials to ints and _den >= 1 is coprime to them
taken together, so zero has _den == 1.  A product multiplies ints and
divides out one gcd; a sum scales to the lcm of the denominators, which
are mostly 1.  items(), coefficient() and constant_value give an int
when a value is integral, else a Fraction, so printed text and num/den
records do not depend on the stored form.

A product refuses to start when the product of its factors' term counts,
a bound on the size of its result, exceeds MAX_PRODUCT_TERMS; a power
refuses when its result would pass MAX_DEGREE, or its coefficients
need more than MAX_COEFFICIENT_BITS bits; and Expr(terms) refuses a
monomial of degree above MAX_DEGREE.  Each raises ExpressionTooLargeError
before the work starts instead of running without end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, log2
from threading import Lock
from typing import Iterable, Mapping

from .multiindex import MultiIndex

_KIND_RANK = {"nu": 0, "t": 1, "x": 2, "u": 3, "p": 4}

_VARIABLES: list[JetVariable] = []  # rank -> the interned variable
_INTERNING = Lock()  # a miss is looked up again, ranked and stored in one step

# Term pairs a single product may multiply out, len(f) * len(g).
MAX_PRODUCT_TERMS = 10**5
# Largest monomial degree a power may build or Expr(terms) may take; a
# monomial holds one tuple entry per degree.
MAX_DEGREE = 10_000
# Bits a power may give its coefficients: n times the bits of the base's
# largest numerator or its denominator.  A one-term base never trips the
# term bound, so this is what stops (2^100000*x1)^10000.
MAX_COEFFICIENT_BITS = 10**6


class ExpressionTooLargeError(ValueError):
    """A result would pass a size bound; pairs is the product's term pair count."""

    def __init__(self, message: str, pairs: int | None = None):
        super().__init__(message)
        self.pairs = pairs


@dataclass(frozen=True, eq=False, init=False)
class JetVariable:
    """A single jet coordinate: x^mu, u^mu_i, p_i, nu or t.

    Variables key every monomial, so there is one object per value;
    equality is identity; interned for the process.  A miss in the table
    validates and builds the variable, with its sort key and label, and
    stores it with the next rank; a hit returns the stored variable.
    """

    kind: str
    mu: int = 0
    index: MultiIndex | None = None
    _key: tuple = field(init=False, repr=False)
    _label: str = field(init=False, repr=False)
    _rank: int = field(init=False, repr=False)

    _interned = {}  # (kind, mu, index) -> the one variable with those fields

    def __new__(cls, kind, mu=0, index=None):
        try:
            return cls._interned[kind, mu, index]
        except KeyError:
            self = object.__new__(cls)
            self.__post_init__(kind, mu, index)
            key = (kind, self.mu, index)
            with _INTERNING:
                stored = cls._interned.get(key)
                if stored is None:
                    # ranked before it is stored: a lookup outside the lock
                    # never finds a variable without a rank
                    object.__setattr__(self, "_rank", len(_VARIABLES))
                    _VARIABLES.append(self)
                    stored = cls._interned[key] = self
            return stored

    def __post_init__(self, kind, mu, index) -> None:
        mu = int(mu)
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown variable kind {kind!r}")
        if kind in ("x", "u") and mu < 1:
            raise ValueError(f"component index must be >= 1, got {mu}")
        if kind in ("u", "p") and index is None:
            raise ValueError(f"{kind}-variable requires a multi-index")
        if kind in ("x", "nu", "t") and index is not None:
            raise ValueError(f"{kind}-variable carries no multi-index")
        rank = _KIND_RANK[kind]
        if kind == "u":
            key, label = (rank, mu, index.sort_key()), f"u{mu}_{index}"
        elif kind == "p":
            key, label = (rank, 0, index.sort_key()), f"p_{index}"
        else:
            key, label = (rank, mu, ((), ())), (f"x{mu}" if kind == "x" else kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_label", label)

    def __reduce__(self):
        return (type(self), (self.kind, self.mu, self.index))

    def sort_key(self):
        return self._key

    def label(self) -> str:
        """Token form used by the expression grammar."""
        return self._label

    def __str__(self) -> str:
        return self.label()


def xvar(mu: int) -> JetVariable:
    return JetVariable("x", mu)


def uvar(mu: int, index) -> JetVariable:
    return JetVariable("u", mu, _as_index(index))


def pvar(index) -> JetVariable:
    return JetVariable("p", 0, _as_index(index))


NU_VAR = JetVariable("nu")
T_VAR = JetVariable("t")


def _as_index(index) -> MultiIndex:
    return index if isinstance(index, MultiIndex) else MultiIndex(tuple(index))


# A monomial is the sorted tuple of its variables' ranks, each repeated by
# its exponent: x1^2*u2_[0,1,0] is (r_x1, r_x1, r_u).  Ranks follow creation
# order, so read it through _factors(), never in storage order.
Monomial = tuple[int, ...]

_ONE_MONOMIAL: Monomial = ()


def _rational(num: int, den: int) -> int | Fraction:
    """num/den as an int when integral, else as a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _factors(mono: Monomial) -> tuple[tuple[JetVariable, int], ...]:
    """The (variable, exponent) pairs of a monomial, in variable sort-key order.

    Printing calls this once per term.  Of the monomials printed by the
    cli-mix benchmark workload (seeds 1-3), 76% have three distinct
    variables and 17% degree 2 or less; for those a few key comparisons
    cost about a third of a dict, a list and a keyed sort.
    """
    if len(mono) == 1:
        return ((_VARIABLES[mono[0]], 1),)
    if len(mono) == 2:
        va, vb = _VARIABLES[mono[0]], _VARIABLES[mono[1]]
        if va is vb:
            return ((va, 2),)
        return ((va, 1), (vb, 1)) if va._key < vb._key else ((vb, 1), (va, 1))
    if len(mono) == 3 and mono[0] != mono[1] != mono[2]:  # three distinct variables
        va, vb, vc = _VARIABLES[mono[0]], _VARIABLES[mono[1]], _VARIABLES[mono[2]]
        if vb._key < va._key:
            va, vb = vb, va
        if vc._key < vb._key:
            vb, vc = vc, vb
            if vb._key < va._key:
                va, vb = vb, va
        return ((va, 1), (vb, 1), (vc, 1))
    pairs = [(_VARIABLES[r], mono.count(r)) for r in dict.fromkeys(mono)]
    pairs.sort(key=lambda ve: ve[0]._key)
    return tuple(pairs)


def _monomial_key(mono: Monomial, pairs=None):
    """(degree, ((variable key, exponent), ...)), the canonical monomial order;
    pairs, when given, are _factors(mono)."""
    return (len(mono), tuple([(v._key, e) for v, e in pairs or _factors(mono)]))


def _pack(pairs: Iterable[tuple[JetVariable, int]]) -> Monomial:
    """The monomial of (variable, exponent) pairs, unchecked: ranks repeated by exponent."""
    return tuple(sorted(v._rank for v, e in pairs for _ in range(e)))


class Expr:
    """A polynomial in canonical form: int numerators over one denominator.

    The pair (_terms, _den) is canonical, so equal polynomials store equal pairs.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[tuple, int | Fraction] | None = None):
        """The sum of the terms, each keyed by its (variable, exponent) pairs.

        A monomial's pairs may come in any order, each variable once with an
        integer exponent of at least 1, else ValueError; a monomial of degree
        above MAX_DEGREE raises ExpressionTooLargeError.
        """
        data: dict[Monomial, int | Fraction] = {}
        for pairs, coeff in (terms or {}).items():
            bad = any(not isinstance(e, int) or e < 1 for _, e in pairs)
            if bad or len(dict(pairs)) != len(pairs):
                listed = [[v.label(), e] for v, e in pairs]
                raise ValueError(f"a repeated factor or an exponent below 1 in {listed}")
            degree = sum(e for _, e in pairs)
            if degree > MAX_DEGREE:
                raise ExpressionTooLargeError(
                    f"a monomial of degree {degree} exceeds the degree bound {MAX_DEGREE}"
                )
            mono = _pack(pairs)
            data[mono] = data.get(mono, 0) + (coeff if type(coeff) is int else Fraction(coeff))
        den = lcm(*(c.denominator for c in data.values()))
        nums = {mono: c.numerator * (den // c.denominator) for mono, c in data.items()}
        e = _canonical(nums, den)
        self._terms, self._den = e._terms, e._den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> Expr:
        return _raw({})

    @staticmethod
    def const(value) -> Expr:
        q = value if type(value) is int else Fraction(value)
        return _canonical({_ONE_MONOMIAL: q.numerator}, q.denominator)

    @staticmethod
    def var(v: JetVariable) -> Expr:
        return _raw({(v._rank,): 1})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def _unsorted_items(self) -> Iterable[tuple[Monomial, int | Fraction]]:
        """Packed monomial/coefficient pairs in storage order, for kernel assembly."""
        den = self._den
        if den == 1:
            return self._terms.items()
        return [(mono, _rational(c, den)) for mono, c in self._terms.items()]

    def items(self) -> list[tuple[tuple[tuple[JetVariable, int], ...], int | Fraction]]:
        """(pairs, coefficient) in canonical order, pairs being a monomial's factors in
        sort-key order, as Expr(terms) takes them: Expr(dict(f.items())) == f."""
        terms = [(mono, _factors(mono), c) for mono, c in self._unsorted_items()]
        terms.sort(key=lambda t: _monomial_key(t[0], t[1]))
        return [(pairs, c) for _, pairs, c in terms]

    def variables(self) -> list[JetVariable]:
        """Distinct variables occurring, in canonical order."""
        seen = set(chain.from_iterable(self._terms))
        return sorted((_VARIABLES[r] for r in seen), key=JetVariable.sort_key)

    def coefficient(self, pairs) -> int | Fraction:
        """The coefficient of the monomial whose pairs Expr(terms) would take; 0 if absent."""
        return _rational(self._terms.get(_pack(pairs), 0), self._den)

    def constant_value(self) -> int | Fraction | None:
        """The rational value when the expression is constant, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and _ONE_MONOMIAL in self._terms:
            return _rational(self._terms[_ONE_MONOMIAL], self._den)
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> Expr:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return expr_sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> Expr:
        return _raw({mono: -c for mono, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> Expr:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Expr:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> Expr:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pairs = len(self._terms) * len(other._terms)
        if pairs > MAX_PRODUCT_TERMS:
            raise ExpressionTooLargeError(
                f"product of {pairs} term pairs exceeds the limit of {MAX_PRODUCT_TERMS}", pairs
            )
        data: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                data[mono] = data.get(mono, 0) + c1 * c2
        return _canonical(data, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Expr:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n!r}")
        if n == 0:
            return Expr.const(1)
        if n == 1:
            return self  # builds nothing, so no bound applies; most powers subs takes are first
        degree = n * max(map(len, self._terms), default=0)
        if degree > MAX_DEGREE:
            raise ExpressionTooLargeError(
                f"a power of degree {degree} exceeds the degree bound {MAX_DEGREE}"
            )
        top = max(max(map(abs, self._terms.values()), default=1), self._den)
        if top > 1:
            # bits >= 1 here, so a huge n is refused before the float product
            bits = log2(top)
            if n > MAX_COEFFICIENT_BITS or n * bits > MAX_COEFFICIENT_BITS:
                raise ExpressionTooLargeError(
                    f"a power's coefficients need more than the bound of {MAX_COEFFICIENT_BITS} bits"
                )
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        value = self.constant_value()
        if value is not None:
            return hash(value)
        return hash((frozenset(self._terms.items()), self._den))

    # -- calculus -----------------------------------------------------

    def diff(self, v: JetVariable) -> Expr:
        """Formal partial derivative: the derivation with image 1 at v, 0 elsewhere."""
        one, zero = Expr.const(1), Expr.zero()
        return derive(self, v, lambda w, target: one if w is target else zero)

    def subs(self, image) -> Expr:
        """The ring homomorphism sending each variable v to image(v).

        image returns the Expr that replaces v, or None to keep v.  All
        variables are replaced at once, monomial by monomial, and an image
        is never revisited: f.subs({a: b, b: a}.get) swaps a and b.
        image is asked once per variable of f, in order of first occurrence
        over the stored monomials and in rank order within each, and ranks
        follow creation, not the sort key; so image must not depend on the
        order it is asked in.  When image raises ValueError, every variable
        of f is asked again in sort-key order, so an image that raises each
        time it is asked about a variable raises for the least such
        variable, whatever the creation order.  When it replaces none, the
        result is f itself.
        """
        replaced: dict[int, Expr] = {}  # rank -> its image, for the ranks image replaces
        try:
            for r in dict.fromkeys(chain.from_iterable(self._terms)):
                img = image(_VARIABLES[r])
                if img is not None:
                    replaced[r] = img
        except ValueError:
            _ask_in_key_order(self, image)
            raise
        if not replaced:
            return self  # an Expr is never mutated, so sharing it is safe
        data: dict[Monomial, int] = {}
        den = 1  # data/den is the running sum
        powers: dict[tuple[int, int], Expr] = {}  # (rank, exponent) -> image ** exponent
        for mono, coeff in self._terms.items():
            kept = []
            product = None
            prev = None
            for r in mono:
                img = replaced.get(r)
                if img is None:
                    kept.append(r)
                    continue
                if r == prev:
                    continue
                prev = r
                e = mono.count(r)
                power = powers.get((r, e))
                if power is None:
                    power = powers[r, e] = img ** e
                product = power if product is None else product * power
            kept = tuple(kept)
            d = product._den if product is not None else 1
            if d != den:
                den = _common_denominator(data, den, d)
                coeff *= den // d
            images = product._terms.items() if product is not None else [((), 1)]
            for image_mono, c in images:
                out = _merge_monomials(kept, image_mono) if image_mono else kept
                data[out] = data.get(out, 0) + coeff * c
        return _canonical(data, den * self._den)

    def evaluate(self, assignment: Mapping[JetVariable, Fraction]) -> Fraction:
        """Exact value at a point; every occurring variable must be assigned."""
        for v in self.variables():
            if v not in assignment:
                raise ValueError(f"no value assigned to variable {v.label()}")
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for v, e in _factors(mono):
                value *= Fraction(assignment[v]) ** e
            total += value
        return total / self._den

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for pairs, coeff in self.items():
            body = _monomial_str(pairs, coeff)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Expr({self})"

    def __reduce__(self):
        # ranks differ between processes, so a pickle holds the factor pairs
        return (_unpickle, ({_factors(mono): c for mono, c in self._terms.items()}, self._den))


def _unpickle(terms: dict, den: int) -> Expr:
    """The stored form of a pickled Expr, repacked with this process's ranks.

    It skips the checks of Expr(terms): the pickled form was canonical, and a
    product may hold a monomial above MAX_DEGREE."""
    return _raw({_pack(pairs): c for pairs, c in terms.items()}, den)


def _raw(data: dict[Monomial, int], den: int = 1) -> Expr:
    e = Expr.__new__(Expr)
    e._terms = data
    e._den = den
    return e


def _canonical(data: dict[Monomial, int], den: int) -> Expr:
    """The expression data/den: cancelled terms dropped, then one gcd divided out."""
    if 0 in data.values():
        data = {mono: c for mono, c in data.items() if c}
    if den != 1:
        g = gcd(den, *data.values())
        if g != 1:
            den //= g
            data = {mono: c // g for mono, c in data.items()}
    return _raw(data, den)


def _common_denominator(data: dict[Monomial, int], den: int, d: int) -> int:
    """Rescale the running sum data/den in place to a denominator d divides; returns it."""
    if den % d:
        grow = d // gcd(den, d)
        for mono in data:
            data[mono] *= grow
        den *= grow
    return den


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.const(value)
    return NotImplemented


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials: their ranks together, sorted in C."""
    return tuple(sorted(m1 + m2))


def derive(f: Expr, arg, image) -> Expr:
    """Apply to f the derivation that sends each variable v to image(v, arg).

    This is the one Leibniz loop, over every monomial: it serves diff, the
    total and restricted derivatives and the evolutionary field.  image is
    asked in rank order within each monomial; when it raises ValueError,
    it is asked again in sort-key order, as in Expr.subs.
    """
    data: dict[Monomial, int] = {}
    den = 1  # data/den is the running sum
    for mono, coeff in f._terms.items():
        prev = None
        for pos, r in enumerate(mono):
            if r == prev:  # a repeated rank is one variable, derived once
                continue
            prev = r
            try:
                img = image(_VARIABLES[r], arg)
            except ValueError:
                _ask_in_key_order(f, lambda v: image(v, arg))
                raise
            if not img._terms:
                continue
            rest = mono[:pos] + mono[pos + 1:]  # one copy of r dropped
            scale = coeff * mono.count(r)
            if img._den != den:
                den = _common_denominator(data, den, img._den)
                scale *= den // img._den
            for image_mono, c in img._terms.items():
                out = _merge_monomials(rest, image_mono) if image_mono else rest
                data[out] = data.get(out, 0) + scale * c
    return _canonical(data, den * f._den)


def _ask_in_key_order(f: Expr, ask) -> None:
    """Ask about every variable of f in sort-key order: called when asking in
    rank order raised, so the error raised names no variable by its rank."""
    for v in f.variables():
        ask(v)


def _monomial_str(pairs, coeff: int | Fraction) -> str:
    """A term's text from its (variable, exponent) pairs."""
    parts = [v._label if e == 1 else f"{v._label}^{e}" for v, e in pairs]
    mag = abs(coeff)
    if not parts:
        return str(mag)
    if mag != 1:
        parts.insert(0, str(mag))
    return "*".join(parts)


# -- convenience expression builders -----------------------------------


def x(mu: int) -> Expr:
    return Expr.var(xvar(mu))


def u(mu: int, index) -> Expr:
    return Expr.var(uvar(mu, index))


def p(index) -> Expr:
    return Expr.var(pvar(index))


nu: Expr = Expr.var(NU_VAR)
t: Expr = Expr.var(T_VAR)


def expr_sum(terms: Iterable[Expr]) -> Expr:
    """The sum of the expressions, accumulated into one map over one denominator."""
    data: dict[Monomial, int] = {}
    den = 1  # data/den is the running sum
    for term in terms:
        scale = 1
        if term._den != den:
            den = _common_denominator(data, den, term._den)
            scale = den // term._den
        for mono, c in term._terms.items():
            data[mono] = data.get(mono, 0) + c * scale
    return _canonical(data, den)
