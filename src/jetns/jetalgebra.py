"""Canonical polynomial expressions in jet variables.

The function algebra is realized as sparse multivariate polynomials over
exact rationals.  Variables are the space coordinates x^mu, the velocity
jets u^mu indexed by a multi-index, the pressure jets p indexed likewise,
the viscosity symbol nu and the time symbol t.  Only finitely many
variables occur in any expression, monomial maps are kept free of zero
coefficients, and equal expressions have identical internal maps, so zero
testing is decidable and printing is deterministic.

A jet variable, like its multi-index, is one object per value; equality
is identity; interned for the process.  Monomials are tuples of variables,
so hashing and comparing a monomial runs no Python code.  Identity hashes
change from run to run, so nothing printed may follow the order of a set
of variables: variables() sorts by the variable sort key.

A coefficient is an int when it is integral and a Fraction otherwise.
Most coefficients the package meets are integers, and int arithmetic
avoids the cost of Fraction.  Every coefficient an expression stores
passes through _coefficient, which gives each rational that one form.
An int and a Fraction of equal value compare and hash alike, so maps,
printed text and the num/den records do not depend on the form.

A product refuses to start when the product of its factors' term counts,
a bound on the size of its result, exceeds MAX_PRODUCT_TERMS; it raises
ExpressionTooLargeError instead of running without end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    validates and builds the variable, with its sort key, and stores it;
    a hit returns the stored variable.
    """

    kind: str
    mu: int = 0
    index: MultiIndex | None = None
    _key: tuple = field(init=False, repr=False)

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
            key = (rank, mu, index.sort_key())
        elif kind == "p":
            key = (rank, 0, index.sort_key())
        else:
            key = (rank, mu, ((), ()))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_key", key)

    def __reduce__(self):
        return (type(self), (self.kind, self.mu, self.index))

    def sort_key(self):
        return self._key

    def label(self) -> str:
        """Token form used by the expression grammar."""
        if self.kind == "x":
            return f"x{self.mu}"
        if self.kind == "u":
            return f"u{self.mu}_{self.index}"
        if self.kind == "p":
            return f"p_{self.index}"
        return self.kind

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


def _coefficient(value) -> int | Fraction:
    """The one stored form of a rational: an int when integral, else a Fraction."""
    if type(value) is not int:
        if type(value) is not Fraction:
            value = Fraction(value)
        if value.denominator == 1:
            return value.numerator
    return value


def _monomial_key(mono: Monomial):
    degree = sum(e for _, e in mono)
    return (degree, tuple((v._key, e) for v, e in mono))


class Expr:
    """A polynomial in canonical form: a map from monomials to rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        """The sum of the terms: a monomial's pairs may come in any order, each
        variable once with an exponent of at least 1, else ValueError."""
        data: dict[Monomial, int | Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if len(dict(mono)) != len(mono) or any(e < 1 for _, e in mono):
                factors = [[v.label(), e] for v, e in mono]
                raise ValueError(f"a repeated factor or an exponent below 1 in {factors}")
            mono = tuple(sorted(mono, key=lambda ve: ve[0]._key))
            data[mono] = data.get(mono, 0) + _coefficient(coeff)
        self._terms = _nonzero(data)._terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> Expr:
        return _raw({})

    @staticmethod
    def const(value) -> Expr:
        c = _coefficient(value)
        return _raw({_ONE_MONOMIAL: c} if c != 0 else {})

    @staticmethod
    def var(v: JetVariable) -> Expr:
        return _raw({((v, 1),): 1})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[Monomial, int | Fraction]]:
        """Monomial/coefficient pairs in canonical order."""
        return sorted(self._terms.items(), key=lambda kv: _monomial_key(kv[0]))

    def variables(self) -> list[JetVariable]:
        """Distinct variables occurring, in canonical order."""
        seen = {v for mono in self._terms for v, _ in mono}
        return sorted(seen, key=JetVariable.sort_key)

    def coefficient(self, mono: Monomial) -> int | Fraction:
        return self._terms.get(mono, 0)

    def constant_value(self) -> int | Fraction | None:
        """The rational value when the expression is constant, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and _ONE_MONOMIAL in self._terms:
            return self._terms[_ONE_MONOMIAL]
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> Expr:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = data.get(mono, 0) + coeff
            if new == 0:
                data.pop(mono, None)
            else:
                data[mono] = _coefficient(new)
        return _raw(data)

    __radd__ = __add__

    def __neg__(self) -> Expr:
        return _raw({mono: -c for mono, c in self._terms.items()})

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
        data: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                data[mono] = data.get(mono, 0) + c1 * c2
        return _nonzero(data)

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
        return self._terms == other._terms

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        value = self.constant_value()
        return hash(value) if value is not None else hash(frozenset(self._terms.items()))

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
        data: dict[Monomial, int | Fraction] = {}
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
            images = product._terms.items() if product is not None else [((), 1)]
            for image_mono, c in images:
                out = _merge_monomials(kept, image_mono) if image_mono else kept
                data[out] = data.get(out, 0) + coeff * c
        return _nonzero(data)

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
        return total

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


def _raw(data: dict[Monomial, int | Fraction]) -> Expr:
    e = Expr.__new__(Expr)
    e._terms = data
    return e


def _nonzero(data: dict[Monomial, int | Fraction]) -> Expr:
    """The expression of summed terms, dropping those that cancelled."""
    return _raw({mono: _coefficient(c) for mono, c in data.items() if c != 0})


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
    data: dict = {}
    for mono, coeff in f._terms.items():
        for pos, (v, e) in enumerate(mono):
            img = image(v, arg)._terms
            if not img:
                continue
            rest = mono[:pos] + ((v, e - 1),) * (e > 1) + mono[pos + 1:]
            scale = coeff * e
            for image_mono, c in img.items():
                out = _merge_monomials(rest, image_mono) if image_mono else rest
                data[out] = data.get(out, 0) + scale * c
    return _nonzero(data)


def _monomial_str(mono: Monomial, coeff: int | Fraction) -> str:
    factors = []
    for v, e in mono:
        factors.append(v.label() if e == 1 else f"{v.label()}^{e}")
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
    total = Expr.zero()
    for term in terms:
        total = total + term
    return total
