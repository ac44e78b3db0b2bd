"""Multi-indices counting partial derivatives per spatial direction.

A multi-index is a tuple of m non-negative integers.  The first direction
is distinguished throughout the package (it is the direction that gets
eliminated by the constraint reductions), so an index exposes its first
entry directly.

Indices are dictionary keys and sort keys in every monomial, so there is
one object per value; equality is identity; interned for the process.
MultiIndex(entries) looks the entries up in a table of the indices built
so far and returns the stored index on a hit.  Only a miss validates,
builds (through __post_init__) and stores a new index, together with its
sort key.  Hashing and comparing an index then run no Python code, and a
failed construction stores nothing.

_int and _decimal convert between ints and decimal text past CPython's
int-string limit, which only the CLI lifts, for the parser and printer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

# CPython converts at most sys.get_int_max_str_digits() digits between str
# and int, never fewer than 640; a longer literal is read in halves.
_SHORT_DIGITS = 640

# Largest total order an index gives a path for.  A table of iterated
# derivatives keeps every tail of a path, n(n+1)/2 directions for order
# n: 2 million, 16 MB of keys, at the bound.
MAX_ORDER = 2_000


def _int(digits: str) -> int:
    """The value of a string of ASCII digits, read below CPython's int-string limit."""
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _int(digits[:-low]) * 10**low + _int(digits[-low:])


def _decimal(q) -> str:
    """str(q) of a non-negative int or Fraction, written in halves past the limit: the
    inverse of _int."""
    try:
        return str(q)
    except ValueError:  # more digits than the interpreter converts at once
        pass
    if type(q) is not int:  # a Fraction, printed only when not integral
        return _decimal(q.numerator) + "/" + _decimal(q.denominator)
    low = int(q.bit_length() * math.log10(2)) // 2
    high, rest = divmod(q, 10**low)
    return _decimal(high) + _decimal(rest).zfill(low)


@dataclass(frozen=True, eq=False, init=False)
class MultiIndex:
    """An element of Z^m with non-negative entries."""

    entries: tuple[int, ...]
    _key: tuple[int, tuple[int, ...]] = field(init=False, repr=False)

    _interned = {}  # entries -> the one index with those entries

    def __new__(cls, entries):
        try:
            return cls._interned[entries]
        except (KeyError, TypeError):  # not built yet, or a list
            self = object.__new__(cls)
            self.__post_init__(entries)
            return cls._interned.setdefault(self.entries, self)

    def __post_init__(self, entries) -> None:
        entries = tuple(int(e) for e in entries)
        if len(entries) == 0:
            raise ValueError("multi-index must have at least one entry")
        for e in entries:
            if e < 0:
                raise ValueError(f"negative multi-index entry: {entries}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_key", (sum(entries), entries))

    def __reduce__(self):
        return (type(self), (self.entries,))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        """The total order |i|."""
        return self._key[0]

    @property
    def first(self) -> int:
        """Number of derivatives along the distinguished first direction."""
        return self.entries[0]

    @cached_property
    def path(self) -> tuple[int, ...]:
        """Each direction repeated by its entry, ascending: [2,0,1] has (1,1,3)."""
        if self.total > MAX_ORDER:
            raise ValueError(
                f"a derivative of order {_decimal(self.total)} exceeds the order bound {MAX_ORDER}"
            )
        return tuple(mu for mu, n in enumerate(self.entries, start=1) for _ in range(n))

    def _check_dim(self, other: MultiIndex) -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def add(self, other: MultiIndex) -> MultiIndex:
        self._check_dim(other)
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def subtract(self, other: MultiIndex) -> MultiIndex | None:
        """Componentwise difference, or None when any entry would go negative."""
        self._check_dim(other)
        diff = tuple(a - b for a, b in zip(self.entries, other.entries))
        if any(d < 0 for d in diff):
            return None
        return MultiIndex(diff)

    def bump(self, mu: int) -> MultiIndex:
        """Increment entry mu (1-based), realizing i + (mu)."""
        if not 1 <= mu <= self.dim:
            raise ValueError(f"direction {mu} out of range 1..{self.dim}")
        e = list(self.entries)
        e[mu - 1] += 1
        return MultiIndex(tuple(e))

    def binomial(self, k: MultiIndex) -> int:
        """Product of per-entry binomial coefficients; 0 when k exceeds self."""
        self._check_dim(k)
        result = 1
        for a, b in zip(self.entries, k.entries):
            if b > a:
                return 0
            result *= math.comb(a, b)
        return result

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Total degree first, then lexicographic on entries."""
        return self._key

    def __str__(self) -> str:
        return "[" + ",".join(map(_decimal, self.entries)) + "]"


def zero(m: int) -> MultiIndex:
    return MultiIndex((0,) * m)


def unit(mu: int, m: int) -> MultiIndex:
    """The index (mu): one derivative along direction mu."""
    if not 1 <= mu <= m:
        raise ValueError(f"direction {mu} out of range 1..{m}")
    return MultiIndex(tuple(1 if k == mu - 1 else 0 for k in range(m)))


def indices_up_to(m: int, max_total: int) -> list[MultiIndex]:
    """All indices of dimension m with |i| <= max_total, in canonical order."""
    found = [
        MultiIndex(e)
        for e in product(range(max_total + 1), repeat=m)
        if sum(e) <= max_total
    ]
    found.sort(key=MultiIndex.sort_key)
    return found


def sub_indices(i: MultiIndex) -> list[MultiIndex]:
    """All k with k <= i componentwise, in canonical order."""
    found = [MultiIndex(e) for e in product(*(range(n + 1) for n in i.entries))]
    found.sort(key=MultiIndex.sort_key)
    return found
