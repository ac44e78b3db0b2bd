"""Canonical polynomial expressions in jet variables.

The function algebra is realized as sparse multivariate polynomials over
exact rationals.  Variables are the space coordinates x^mu, the velocity
jets u^mu indexed by a multi-index, the pressure jets p indexed likewise,
the viscosity symbol nu and the time symbol t.  Only finitely many
variables occur in any expression, monomial maps are kept free of zero
coefficients, and equal expressions have identical internal maps and
denominators, so zero testing is decidable and printing is deterministic.

A jet variable, like its multi-index, is one object per value; equality
is identity; interned for the process.  Monomials are tuples of variables,
so hashing and comparing a monomial runs no Python code.  Identity hashes
change from run to run, so nothing printed may follow the order of a set
of variables: variables() sorts by the variable sort key.

An expression stores int numerators over one denominator (FLINT's
fmpq_poly; Geddes, Czapor & Labahn, Algorithms for Computer Algebra,
ch. 2): _terms maps monomials to ints and _den >= 1 is coprime to them
taken together, so zero has _den == 1.  A product multiplies ints and
divides out one gcd; a sum scales to the lcm of the denominators, which
are mostly 1.  items(), unsorted_items() (the one reader other modules
use), coefficient and constant_value give an int when a value is
integral, else a Fraction, so printed text and num/den records do not
depend on the stored form.

A product refuses to start when the product of its factors' term counts,
a bound on the size of its result, exceeds MAX_PRODUCT_TERMS; it raises
ExpressionTooLargeError instead of running without end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .multiindex import MultiIndex

_KIND_RANK = {"nu": 0, "t": 1, "x": 2, "u": 3, "p": 4}

# Term pairs a single product may multiply out, len(f) * len(g).
MAX_PRODUCT_TERMS = 10**5


class ExpressionTooLargeError(ValueError):
    def __init__(self, pairs: int):
        super().__init__(
            f"product of {pairs} term pairs exceeds the limit of {MAX_PRODUCT_TERMS}"
        )
        self.pairs = pairs


@dataclass(frozen=True, eq=False, init=False)
class JetVariable:
    """A single jet coordinate: x^mu, u^mu_i, p_i, nu or t.

    Variables key every monomial, so there is one object per value;
    equality is identity; interned for the process.  A miss in the table
    validates and builds the variable, with its sort key and label, and
    stores it; a hit returns the stored variable.
    """

    kind: str
    mu: int = 0
    index: MultiIndex | None = None
    _key: tuple = field(init=False, repr=False)
    _label: str = field(init=False, repr=False)

    _interned = {}  # (kind, mu, index) -> the one variable with those fields

    def __new__(cls, kind, mu=0, index=None):
        try:
            return cls._interned[kind, mu, index]
        except KeyError:
            self = object.__new__(cls)
            self.__post_init__(kind, mu, index)
            return cls._interned.setdefault((kind, self.mu, index), self)

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


# A monomial is a sorted tuple of (variable, exponent) pairs, exponent >= 1.
Monomial = tuple[tuple[JetVariable, int], ...]

_ONE_MONOMIAL: Monomial = ()


def _rational(num: int, den: int) -> int | Fraction:
    """num/den as an int when integral, else as a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _monomial_key(mono: Monomial):
    degree = sum(e for _, e in mono)
    return (degree, tuple((v._key, e) for v, e in mono))


class Expr:
    """A polynomial in canonical form: int numerators over one denominator.

    The pair (_terms, _den) is canonical, so equal polynomials store equal pairs.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        """The sum of the terms: a monomial's pairs may come in any order, each
        variable once with an exponent of at least 1, else ValueError."""
        data: dict[Monomial, int | Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if len(dict(mono)) != len(mono) or any(e < 1 for _, e in mono):
                factors = [[v.label(), e] for v, e in mono]
                raise ValueError(f"a repeated factor or an exponent below 1 in {factors}")
            mono = tuple(sorted(mono, key=lambda ve: ve[0]._key))
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
        return _raw({((v, 1),): 1})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def unsorted_items(self) -> Iterable[tuple[Monomial, int | Fraction]]:
        """Monomial/coefficient pairs in storage order: items() without the sort."""
        den = self._den
        if den == 1:
            return self._terms.items()
        return [(mono, _rational(c, den)) for mono, c in self._terms.items()]

    def items(self) -> list[tuple[Monomial, int | Fraction]]:
        """Monomial/coefficient pairs in canonical order."""
        return sorted(self.unsorted_items(), key=lambda kv: _monomial_key(kv[0]))

    def variables(self) -> list[JetVariable]:
        """Distinct variables occurring, in canonical order."""
        seen = {v for mono in self._terms for v, _ in mono}
        return sorted(seen, key=JetVariable.sort_key)

    def coefficient(self, mono: Monomial) -> int | Fraction:
        return _rational(self._terms.get(mono, 0), self._den)

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
            raise ExpressionTooLargeError(pairs)
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
        image is asked once per variable, in order of first occurrence; when
        it replaces none, the result is f itself.
        """
        image_of = dict.fromkeys(v for mono in self._terms for v, _ in mono)
        for v in image_of:
            image_of[v] = image(v)
        if all(img is None for img in image_of.values()):
            return self  # an Expr is never mutated, so sharing it is safe
        data: dict[Monomial, int] = {}
        den = 1  # data/den is the running sum
        powers: dict[tuple[JetVariable, int], Expr] = {}
        for mono, coeff in self._terms.items():
            kept = []
            product = None
            for v, e in mono:
                img = image_of[v]
                if img is None:
                    kept.append((v, e))
                    continue
                power = powers.get((v, e))
                if power is None:
                    power = powers[(v, e)] = img ** e
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
            for v, e in mono:
                value *= Fraction(assignment[v]) ** e
            total += value
        return total / self._den

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.items():
            body = _monomial_str(mono, coeff)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Expr({self})"


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
    """The product of two monomials, in one linear merge of their pairs.

    Relies on the Monomial invariant: each side is sorted by variable key
    and holds each variable once.  Distinct variables have distinct keys,
    so equal keys mean one variable, whose exponents add.
    """
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        ka, kb = a[0]._key, b[0]._key
        if ka < kb:
            out.append(a)
            i += 1
        elif kb < ka:
            out.append(b)
            j += 1
        else:
            out.append((a[0], a[1] + b[1]))
            i += 1
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def derive(f: Expr, arg, image) -> Expr:
    """Apply to f the derivation that sends each variable v to image(v, arg).

    This is the one Leibniz loop, over every monomial: it serves diff, the
    total and restricted derivatives and the evolutionary field.
    """
    data: dict[Monomial, int] = {}
    den = 1  # data/den is the running sum
    for mono, coeff in f._terms.items():
        for pos, (v, e) in enumerate(mono):
            img = image(v, arg)
            if not img._terms:
                continue
            rest = mono[:pos] + ((v, e - 1),) * (e > 1) + mono[pos + 1:]
            scale = coeff * e
            if img._den != den:
                den = _common_denominator(data, den, img._den)
                scale *= den // img._den
            for image_mono, c in img._terms.items():
                out = _merge_monomials(rest, image_mono) if image_mono else rest
                data[out] = data.get(out, 0) + scale * c
    return _canonical(data, den * f._den)


def _monomial_str(mono: Monomial, coeff: int | Fraction) -> str:
    factors = []
    for v, e in mono:
        factors.append(v._label if e == 1 else f"{v._label}^{e}")
    mag = abs(coeff)
    if not factors:
        return str(mag)
    if mag != 1:
        factors.insert(0, str(mag))
    return "*".join(factors)


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
