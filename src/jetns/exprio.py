"""Text grammar, parser and printer for expressions and tuples.

Grammar (whitespace-insensitive, LL(1)):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | 'nu' | 't' | 'x' nat
              | 'u' nat '_' index
              | 'p_' index
              | '(' expr ')'
    index    := '[' nat (',' nat)* ']'      (exactly m entries)
    rational := int ('/' nat)?

Tuples use named components separated by ';', e.g.

    f1: u1_[1,0,0]; f2: u2_[1,0,0]; f3: u3_[1,0,0]; f: p_[1,0,0]

Component names: f1..fm and f for characteristics and cotuples, j1..jm
for currents.  The reduced-complex tuples name their labels as follows:

    label                name        shapes
    ("chi01",)           chi01       chi_ce, chi_cpe
    ("chi_alpha", i1, a) chi[a,i1]   chi_ce, chi_cpe   (a in 2..m)
    ("chi_p", i1)        chi[i1]     chi_ce
    ("chi0",)            chi0        chi_cpe
    ("chi1",)            chi1        chi_cpe

Only the names print_tuple writes are accepted, so f01 and chi[2,00] are
unknown, and a second component for one slot or label is a duplicate.
Missing components default to zero.

The structured serialization mirrors the canonical monomial map: a list
of records with integer numerator and denominator and a factor list of
(variable label, exponent) pairs, in canonical order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .evolutionary import Characteristic
from .jetalgebra import (
    Expr,
    JetVariable,
    Monomial,
    NU_VAR,
    T_VAR,
    _nonzero,
    pvar,
    uvar,
    xvar,
)
from .multiindex import MultiIndex
from .reducedcomplex import ChiTuple, ChiTupleCE, ChiTupleCPE
from .variational import Cotuple, CurrentTuple


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'word', or a literal symbol
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            end = pos
            while end < n and text[end].isdigit():
                end += 1
            tokens.append(_Token("num", text[pos:end], SourceSpan(pos, end)))
            pos = end
            continue
        if ch.isalpha():
            end = pos
            while end < n and text[end].isalpha():
                end += 1
            tokens.append(_Token("word", text[pos:end], SourceSpan(pos, end)))
            pos = end
            continue
        if ch in "+-*/^()[],_":
            tokens.append(_Token(ch, ch, SourceSpan(pos, pos + 1)))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", SourceSpan(pos, pos + 1))
    tokens.append(_Token("end", "", SourceSpan(n, n)))
    return tokens


class _Parser:
    def __init__(self, text: str, m: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.m = m

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.span
            )
        return self.advance()

    def parse_expr(self) -> Expr:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            term = self.parse_term()
            result = result + term if op.kind == "+" else result - term
        return result

    def parse_term(self) -> Expr:
        result = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("num")
            return base ** int(tok.text)
        return base

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("num")
                if int(den.text) == 0:
                    raise ExprSyntaxError("zero denominator", den.span)
                value = value / int(den.text)
            return Expr.const(value)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "word":
            return self.parse_symbol()
        raise ExprSyntaxError(
            f"expected a factor, found {tok.text or 'end of input'!r}", tok.span
        )

    def parse_symbol(self) -> Expr:
        tok = self.advance()
        word = tok.text
        if word == "nu":
            return Expr.var(NU_VAR)
        if word == "t":
            return Expr.var(T_VAR)
        if word == "x":
            num = self.expect("num")
            return Expr.var(xvar(self._component(num)))
        if word == "u":
            num = self.expect("num")
            mu = self._component(num)
            self.expect("_")
            index = self.parse_index()
            return Expr.var(uvar(mu, index))
        if word == "p":
            self.expect("_")
            index = self.parse_index()
            return Expr.var(pvar(index))
        raise ExprSyntaxError(f"unknown symbol {word!r}", tok.span)

    def _component(self, tok: _Token) -> int:
        mu = int(tok.text)
        if not 1 <= mu <= self.m:
            raise ExprSyntaxError(
                f"component {mu} out of range 1..{self.m}", tok.span
            )
        return mu

    def parse_index(self) -> MultiIndex:
        open_tok = self.expect("[")
        entries = []
        while True:
            tok = self.peek()
            if tok.kind == "-":
                raise ExprSyntaxError("negative index entry", tok.span)
            num = self.expect("num")
            entries.append(int(num.text))
            if self.peek().kind == ",":
                self.advance()
                continue
            close = self.expect("]")
            break
        if len(entries) != self.m:
            raise ExprSyntaxError(
                f"index has {len(entries)} entries, dimension is {self.m}",
                SourceSpan(open_tok.span.start, close.span.end),
            )
        return MultiIndex(tuple(entries))

    def finish(self, result):
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.span)
        return result


def parse_expr(text: str, m: int) -> Expr:
    parser = _Parser(text, m)
    return parser.finish(parser.parse_expr())


def parse_index(text: str, m: int) -> MultiIndex:
    """A multi-index by the grammar's index rule: m bracketed entries, like [1,0,0]."""
    parser = _Parser(text, m)
    return parser.finish(parser.parse_index())


def print_expr(f: Expr) -> str:
    """Deterministic canonical rendering; inverse of parse_expr."""
    return str(f)


# -- tuples -----------------------------------------------------------------

_CHI_NAME = re.compile(r"^chi\[(\d+)(?:,(\d+))?\]$")

_SHAPE_TYPES = {
    "characteristic": Characteristic,
    "cotuple": Cotuple,
    "current": CurrentTuple,
    "chi_ce": ChiTupleCE,
    "chi_cpe": ChiTupleCPE,
}
SHAPES = tuple(_SHAPE_TYPES)


def _chi_label(name: str) -> tuple | None:
    """The tuple label a component name denotes, or None."""
    match = _CHI_NAME.match(name)
    if match is None:
        return (name,) if name in ("chi01", "chi0", "chi1") else None
    first, second = match.groups()
    return ("chi_p", int(first)) if second is None else ("chi_alpha", int(second), int(first))


def _chi_name(label: tuple) -> str:
    if label[0] == "chi_alpha":
        return f"chi[{label[2]},{label[1]}]"
    if label[0] == "chi_p":
        return f"chi[{label[1]}]"
    return label[0]


def parse_tuple(text: str, shape: str, m: int):
    if shape not in SHAPES:
        raise ValueError(f"unknown tuple shape {shape!r}")
    components: dict = {}
    offset = 0
    for part in text.split(";"):
        start, offset = offset, offset + len(part) + 1
        if not part.strip():
            continue
        if ":" not in part:
            raise ExprSyntaxError(
                "expected 'name: expression'",
                SourceSpan(start, start + len(part)),
            )
        name_text, expr_text = part.split(":", 1)
        name = name_text.strip()
        span = SourceSpan(start, start + len(name_text))
        key = _component_key(name, shape, m, span)
        if key in components:
            raise ExprSyntaxError(f"duplicate component {name!r}", span)
        try:
            components[key] = parse_expr(expr_text, m)
        except ExprSyntaxError as err:  # the span is within expr_text: make it the input's
            shift = start + len(name_text) + 1
            span = SourceSpan(err.span.start + shift, err.span.end + shift)
            raise ExprSyntaxError(err.message, span) from None
    if shape in ("chi_ce", "chi_cpe"):
        return _SHAPE_TYPES[shape](components)
    slots = [components.get(k, Expr.zero()) for k in range(m + 1)]
    if shape == "current":
        return CurrentTuple(tuple(slots[:m]))
    return _SHAPE_TYPES[shape](tuple(slots[:m]), slots[m])


def _component_key(name: str, shape: str, m: int, span: SourceSpan):
    """The label, or the slot position, of a component name print_tuple writes."""
    if shape in ("chi_ce", "chi_cpe"):
        label = _chi_label(name)
        if label is not None and _SHAPE_TYPES[shape].allows(label) and _chi_name(label) == name:
            if label[0] == "chi_alpha" and not 2 <= label[2] <= m:
                raise ExprSyntaxError(
                    f"velocity component {label[2]} out of range 2..{m}", span
                )
            return label
    else:
        letter = "j" if shape == "current" else "f"
        names = [f"{letter}{mu}" for mu in range(1, m + 1)]
        if shape != "current":
            names.append("f")
        if name in names:
            return names.index(name)
    raise ExprSyntaxError(f"unknown component {name!r} for shape {shape}", span)


def print_tuple(value) -> str:
    """Canonical tuple rendering; inverse of parse_tuple for its shape."""
    if isinstance(value, Characteristic):  # a Cotuple is one too
        parts = [
            f"f{mu}: {value.velocity[mu - 1]}" for mu in range(1, value.m + 1)
        ]
        parts.append(f"f: {value.pressure}")
        return "; ".join(parts)
    if isinstance(value, CurrentTuple):
        return "; ".join(
            f"j{mu}: {comp}" for mu, comp in enumerate(value.components, start=1)
        )
    if isinstance(value, ChiTuple):
        parts = [f"{_chi_name(label)}: {expr}" for label, expr in value.items()]
        return "; ".join(parts) if parts else "chi01: 0"
    raise TypeError(f"cannot print value of type {type(value).__name__}")


def tuple_shape(value) -> str:
    for shape, cls in _SHAPE_TYPES.items():
        if type(value) is cls:
            return shape
    raise TypeError(f"no tuple shape for {type(value).__name__}")


# -- structured serialization ------------------------------------------------


def expr_to_records(f: Expr) -> list[dict]:
    records = []
    for mono, coeff in f.items():
        records.append(
            {
                "num": coeff.numerator,
                "den": coeff.denominator,
                "factors": [[v.label(), e] for v, e in mono],
            }
        )
    return records


def variable_from_label(label: str, m: int) -> JetVariable:
    """The variable whose label() is label, read by the grammar's symbol rule."""
    parser = _Parser(label, m)
    return parser.finish(parser.parse_symbol()).variables()[0]


def records_to_expr(records: list[dict], m: int) -> Expr:
    """The expression the records denote; each factor list is one monomial.

    A variable may occur once per monomial, with an exponent of at least 1,
    so that equal expressions keep equal monomial maps.
    """
    terms: dict[Monomial, Fraction] = {}
    for record in records:
        coeff = Fraction(int(record["num"]), int(record["den"]))
        factors = tuple(
            (variable_from_label(label, m), int(e)) for label, e in record["factors"]
        )
        if len({v for v, _ in factors}) != len(factors):
            raise ValueError(f"repeated factor in {record['factors']!r}")
        if any(e < 1 for _, e in factors):
            raise ValueError(f"exponent below 1 in {record['factors']!r}")
        factors = tuple(sorted(factors, key=lambda ve: ve[0].sort_key()))
        terms[factors] = terms.get(factors, Fraction(0)) + coeff
    return _nonzero(terms)
