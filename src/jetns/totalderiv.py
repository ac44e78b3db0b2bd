"""Total derivatives and horizontal forms on the free jet algebra.

The total derivative along a spatial direction shifts every occurring jet
variable's multi-index by one in that direction and differentiates any
explicit coordinate dependence.  Horizontal forms are stored through their
strictly increasing component tuples, so skew-symmetry is canonical and
the differential is the alternating sum over insertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .jetalgebra import Expr, JetVariable, _merge_monomials, _nonzero, expr_sum, pvar, uvar
from .multiindex import MultiIndex


def _free_image(v: JetVariable, mu: int) -> Expr:
    """Total derivative of a single variable along direction mu."""
    if v.kind == "x":
        return Expr.const(1) if v.mu == mu else Expr.zero()
    if v.kind == "u":
        return Expr.var(uvar(v.mu, v.index.bump(mu)))
    if v.kind == "p":
        return Expr.var(pvar(v.index.bump(mu)))
    return Expr.zero()  # nu and t are constants for spatial derivatives


def derive(f: Expr, mu: int, image) -> Expr:
    """Apply the derivation with the given variable image map to f.

    The image callable sends a variable to an Expr; the derivation extends
    it through the Leibniz rule on every monomial.
    """
    data: dict = {}
    for mono, coeff in f._terms.items():
        for pos, (v, e) in enumerate(mono):
            img = image(v, mu)._terms
            if not img:
                continue
            rest = mono[:pos] + ((v, e - 1),) * (e > 1) + mono[pos + 1:]
            scale = coeff * e
            for image_mono, c in img.items():
                out = _merge_monomials(rest, image_mono) if image_mono else rest
                data[out] = data.get(out, 0) + scale * c
    return _nonzero(data)


def total_derivative(mu: int, f: Expr) -> Expr:
    """The free total derivative D_mu."""
    if mu < 1:
        raise ValueError(f"direction must be >= 1, got {mu}")
    return derive(f, mu, _free_image)


def total_derivative_multi(i: MultiIndex, f: Expr) -> Expr:
    """Iterated total derivative D_i; the composition order is immaterial."""
    result = f
    for direction, count in enumerate(i.entries, start=1):
        for _ in range(count):
            result = total_derivative(direction, result)
    return result


def second_derivative_sum(derivative, f: Expr, directions) -> Expr:
    """Sum of derivative(mu, derivative(mu, f)) over the given directions."""
    return expr_sum(derivative(mu, derivative(mu, f)) for mu in directions)


def laplacian(m: int, f: Expr) -> Expr:
    """Sum of second derivatives over all m directions."""
    return second_derivative_sum(total_derivative, f, range(1, m + 1))


def laplacian_primed(m: int, f: Expr) -> Expr:
    """Sum of second derivatives over the directions 2..m only."""
    return second_derivative_sum(total_derivative, f, range(2, m + 1))


@dataclass
class HForm:
    """Horizontal q-form given by strictly increasing component tuples.

    Degree 0 stores the single component at the empty tuple.  Degree m+1
    is admitted only as the zero form (the image of a top-degree form).
    """

    m: int
    degree: int
    components: dict[tuple[int, ...], Expr] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= self.m + 1:
            raise ValueError(f"degree {self.degree} out of range for m={self.m}")
        clean: dict[tuple[int, ...], Expr] = {}
        for idx, expr in self.components.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise ValueError(f"component tuple {idx} has wrong length")
            if any(not 1 <= k <= self.m for k in idx):
                raise ValueError(f"component tuple {idx} out of range 1..{self.m}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"component tuple {idx} not strictly increasing")
            if not expr.is_zero():
                clean[idx] = expr
        if self.degree == self.m + 1 and clean:
            raise ValueError("forms above top degree must be zero")
        self.components = clean

    @staticmethod
    def scalar(m: int, f: Expr) -> HForm:
        return HForm(m, 0, {(): f})

    @staticmethod
    def from_current(components: list[Expr]) -> HForm:
        """The (m-1)-form with the given components in the d_mu x basis.

        d_mu x carries the sign (-1)^(mu-1) relative to the increasing
        basis, so that dx^nu wedge d_mu x equals delta^nu_mu times the
        volume form.
        """
        m = len(components)
        data: dict[tuple[int, ...], Expr] = {}
        for mu, comp in enumerate(components, start=1):
            idx = tuple(k for k in range(1, m + 1) if k != mu)
            sign = Fraction(-1) ** (mu - 1)
            data[idx] = sign * comp
        return HForm(m, m - 1, data)

    def component(self, idx: tuple[int, ...]) -> Expr:
        return self.components.get(tuple(idx), Expr.zero())

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        if not isinstance(other, HForm):
            return NotImplemented
        return (self.m, self.degree, self.components) == (
            other.m,
            other.degree,
            other.components,
        )


def horizontal_differential(w: HForm) -> HForm:
    """The horizontal differential: alternating total derivatives.

    For strictly increasing components the new component at nu_0<...<nu_q
    is the alternating sum of D_(nu_j) applied to the component with nu_j
    omitted.  Applying the differential twice gives zero.
    """
    if w.degree >= w.m:
        return HForm(w.m, min(w.degree + 1, w.m + 1), {})
    out: dict[tuple[int, ...], Expr] = {}
    for idx in combinations(range(1, w.m + 1), w.degree + 1):
        total = Expr.zero()
        for j, direction in enumerate(idx):
            omitted = idx[:j] + idx[j + 1:]
            source = w.components.get(omitted)
            if source is None:
                continue
            total = total + Fraction(-1) ** j * total_derivative(direction, source)
        if not total.is_zero():
            out[idx] = total
    return HForm(w.m, w.degree + 1, out)
