"""Tuples of expressions keyed by component label, one class for every shape.

Characteristics, cotuples, currents and the cochains of the reduced
complex are all finite tuples of expressions indexed by components.
LabelTuple holds the dimension m and the nonzero entries keyed by label:
a kind followed by integers, like ("u", 2) or ("chi_alpha", i1, a).  Each
shape's kinds table lists, in print order, the name template of each kind,
formatted with the label's integers, and the range of each integer.
Entries are kept in that order, labels of one kind by their integers.
Dense shapes have finitely many labels at m and print every one; the chi
shapes print only their nonzero entries.  SHAPES registers each shape
under the name the parser uses.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cache, partial
from itertools import product

from .constraints import ReductionContext, reduce
from .jetalgebra import Expr

# The integers of a label: what each counts, its least value and whether m bounds it.
_MU = ("velocity component", 1, True)
_ALPHA = ("velocity component", 2, True)
_DIRECTION = ("direction", 1, True)
_ORDER = ("first-direction order", 0, False)


@cache
def _name_pattern(template: str) -> tuple[re.Pattern, list[int]]:
    """A regex for the names template formats, without leading zeros, and each integer's group."""
    parts = re.split(r"\{(\d)\}", template)  # literal text at even positions, fields at odd
    fields = [int(field) for field in parts[1::2]]
    regex = "(0|[1-9][0-9]*)".join(re.escape(text) for text in parts[::2])
    return re.compile(regex), [fields.index(k) + 1 for k in range(len(fields))]


class LabelTuple:
    """A tuple of expressions at dimension m: its nonzero entries keyed by label.

    A subclass is one shape.  It sets shape, its name in SHAPES; kinds,
    which maps each kind of label, in print order, to its name template
    and the ranges of its integers; and dense, when it prints zero entries
    too.  A tuple is built from its entries, Shape(m, {label: f}).  A
    label the shape has no room for at m is refused, zero entries are
    dropped and the rest kept in print order.  reduce, unary - and scalar *
    keep the tuple's checked labels in their order and only drop zero
    entries; + merges two tuples through the constructor.
    """

    shape: str
    kinds: dict[str, tuple[str, tuple]]
    dense = False

    def __init__(self, m: int, entries: dict[tuple, Expr] = {}) -> None:
        if m < 1:
            raise ValueError(f"dimension {m} is below 1")
        by_kind: dict[str, list[tuple]] = {kind: [] for kind in self.kinds}
        for label, f in entries.items():
            self.check_label(label, m)
            if not f.is_zero():
                by_kind[label[0]].append(label)
        self.m = m
        self._entries = {k: entries[k] for labels in by_kind.values() for k in sorted(labels)}

    @classmethod
    @cache  # a valid label is checked once per shape and m; a refused one raises each time
    def check_label(cls, label: tuple, m: int) -> None:
        """Raise ValueError unless the shape has the label at dimension m."""
        spec = cls.kinds.get(label[0]) if label else None
        if spec is None or len(label) != len(spec[1]) + 1:
            raise ValueError(f"{cls.__name__} has no label {label!r}")
        for value, (what, low, bounded) in zip(label[1:], spec[1]):
            if value < low or bounded and value > m:
                raise ValueError(f"{what} {value} out of range {low}..{m if bounded else ''}")

    @classmethod
    def name(cls, label: tuple) -> str:
        """The component name of the label."""
        return cls.kinds[label[0]][0].format(*label[1:])

    @classmethod
    def label(cls, name: str, m: int) -> tuple:
        """The label at m that name denotes; the inverse of name.

        Only the names that name() writes are read, so f01 and chi[2,00] are unknown.
        """
        for kind, (template, _) in cls.kinds.items():
            pattern, groups = _name_pattern(template)
            match = pattern.fullmatch(name)
            if match is not None:
                label = (kind, *(int(match[group]) for group in groups))
                cls.check_label(label, m)
                return label
        raise ValueError(f"unknown component {name!r} for shape {cls.shape}")

    @classmethod
    def labels(cls, m: int, max_order: int = 0) -> list[tuple]:
        """The labels at m with first-direction orders up to max_order, in print order."""
        labels = []
        for kind, (_, ranges) in cls.kinds.items():
            axes = [range(low, (m if bounded else max_order) + 1) for _, low, bounded in ranges]
            labels += [(kind, *ints) for ints in product(*axes)]
        return labels

    def items(self) -> list[tuple[tuple, Expr]]:
        """The nonzero entries as (label, expression), in print order."""
        return list(self._entries.items())

    def __getitem__(self, label: tuple) -> Expr:
        entry = self._entries.get(label)
        return Expr.zero() if entry is None else entry

    def is_zero(self) -> bool:
        return not self._entries

    def _map(self, op):
        """This tuple with op applied to every entry and the zero results dropped.

        The labels were checked and ordered when this tuple was built, so
        they are not checked again.
        """
        out = object.__new__(type(self))
        out.m = self.m
        out._entries = {k: g for k, f in self._entries.items() if not (g := op(f)).is_zero()}
        return out

    def reduce(self, ctx: ReductionContext):
        return self._map(partial(reduce, ctx))

    def __add__(self, other):
        if not isinstance(other, LabelTuple):
            return NotImplemented
        if type(other) is not type(self) or other.m != self.m:
            raise ValueError(
                f"cannot combine a {type(self).__name__} at m={self.m} "
                f"with a {type(other).__name__} at m={other.m}"
            )
        labels = {**self._entries, **other._entries}
        return type(self)(self.m, {label: self[label] + other[label] for label in labels})

    def __neg__(self):
        return self._map(operator.neg)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, scalar):
        c = Fraction(scalar)
        return self._map(lambda f: c * f)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.m == other.m and self._entries == other._entries

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.m}, {self._entries!r})"


class Characteristic(LabelTuple):
    """Generating tuple of an evolutionary field: velocity entries f1..fm, pressure entry f."""

    shape = "characteristic"
    kinds = {"u": ("f{0}", (_MU,)), "p": ("f", ())}
    dense = True

    @property
    def velocity(self) -> tuple[Expr, ...]:
        return tuple(self[("u", mu)] for mu in range(1, self.m + 1))

    @property
    def pressure(self) -> Expr:
        return self[("p",)]

    def component(self, slot: int) -> Expr:
        """Slot 1..m selects a velocity component, slot 0 the pressure one."""
        return self[("u", slot) if slot else ("p",)]


class Cotuple(Characteristic):
    """A tuple dual to characteristics: m velocity entries and a pressure entry."""

    shape = "cotuple"


class CurrentTuple(LabelTuple):
    """Components of a flux: one expression per spatial direction."""

    shape = "current"
    kinds = {"j": ("j{0}", (_DIRECTION,))}
    dense = True


class ChiTuple(LabelTuple):
    """A tuple of the reduced complex.

    ("chi01",) is the entry dual to the unconstrained first velocity
    component and ("chi_alpha", i1, a) the entry at first-direction order
    i1 and spatial component a in 2..m.  Each subclass adds its pressure
    block to these kinds.
    """

    kinds = {"chi01": ("chi01", ()), "chi_alpha": ("chi[{1},{0}]", (_ORDER, _ALPHA))}

    @property
    def chi01(self) -> Expr:
        return self[("chi01",)]

    @property
    def chi_alpha(self) -> dict[tuple[int, int], Expr]:
        """Entries by (first-direction order, spatial component)."""
        return {label[1:]: v for label, v in self._entries.items() if label[0] == "chi_alpha"}


class ChiTupleCE(ChiTuple):
    """Tuple for the continuity-setting complex.

    The pressure block keeps one entry ("chi_p", i1) per first-direction
    order i1; chi_p maps i1 to that entry.
    """

    shape = "chi_ce"
    kinds = {**ChiTuple.kinds, "chi_p": ("chi[{0}]", (_ORDER,))}

    @property
    def chi_p(self) -> dict[int, Expr]:
        return {label[1]: v for label, v in self._entries.items() if label[0] == "chi_p"}


class ChiTupleCPE(ChiTuple):
    """Tuple for the joint-setting complex.

    Velocity entries as in the continuity shape; the pressure block
    collapses to the two entries chi0 and chi1 because only the first two
    first-direction orders of the pressure survive the reduction.
    """

    shape = "chi_cpe"
    kinds = {**ChiTuple.kinds, "chi0": ("chi0", ()), "chi1": ("chi1", ())}

    @property
    def chi0(self) -> Expr:
        return self[("chi0",)]

    @property
    def chi1(self) -> Expr:
        return self[("chi1",)]


SHAPES = {
    cls.shape: cls for cls in (Characteristic, Cotuple, CurrentTuple, ChiTupleCE, ChiTupleCPE)
}
