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

The component names, like f1 and f above, and their print order come from
each shape's kinds table in the tuples module.  Only the names print_tuple
writes are accepted, so f01 and chi[2,00] are unknown, and a second
component for one label is a duplicate.  Missing components default to zero.

The structured serialization mirrors the canonical monomial map: a list
of records with integer numerator and denominator and a factor list of
(variable label, exponent) pairs, in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log10

from .jetalgebra import (
    MAX_COEFFICIENT_BITS,
    Expr,
    JetVariable,
    NU_VAR,
    T_VAR,
    pvar,
    uvar,
    xvar,
)
from .multiindex import MultiIndex
from .tuples import SHAPES, LabelTuple


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


# The digits of 2^MAX_COEFFICIENT_BITS, the largest coefficient a power may
# build: the tokenizer refuses a longer numeric literal before int() reads it.
MAX_LITERAL_DIGITS = int(MAX_COEFFICIENT_BITS * log10(2)) + 1

# A token is a plain (kind, text, start, end) tuple; kind is 'num', 'word',
# 'end' or a literal symbol.  A SourceSpan is built only for an error.
_Token = tuple[str, str, int, int]


def _span(tok: _Token) -> SourceSpan:
    return SourceSpan(tok[2], tok[3])


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "0123456789":  # ASCII only: str.isdigit() also takes '²' and '٣'
            end = pos
            while end < n and text[end] in "0123456789":
                end += 1
            if end - pos > MAX_LITERAL_DIGITS:
                raise ExprSyntaxError(
                    f"a numeric literal of {end - pos} digits exceeds the bound of "
                    f"{MAX_LITERAL_DIGITS} digits",
                    SourceSpan(pos, end),
                )
            tokens.append(("num", text[pos:end], pos, end))
            pos = end
            continue
        if ch.isalpha():
            end = pos
            while end < n and text[end].isalpha():
                end += 1
            tokens.append(("word", text[pos:end], pos, end))
            pos = end
            continue
        if ch in "+-*/^()[],_":
            tokens.append((ch, ch, pos, pos + 1))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", SourceSpan(pos, pos + 1))
    tokens.append(("end", "", n, n))
    return tokens


class _Parser:
    def __init__(self, text: str, m: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.m = m

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}", _span(tok)
            )
        return self.advance()

    def parse_expr(self) -> Expr:
        negate = False
        if self.kind() == "-":
            self.advance()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while self.kind() in ("+", "-"):
            op = self.advance()[0]
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Expr:
        result = self.parse_factor()
        while self.kind() == "*":
            self.advance()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.kind() == "^":
            self.advance()
            return base ** int(self.expect("num")[1])
        return base

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            value = Fraction(int(tok[1]))
            if self.kind() == "/":
                self.advance()
                den = self.expect("num")
                if int(den[1]) == 0:
                    raise ExprSyntaxError("zero denominator", _span(den))
                value = value / int(den[1])
            return Expr.const(value)
        if tok[0] == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok[0] == "word":
            return self.parse_symbol()
        raise ExprSyntaxError(
            f"expected a factor, found {tok[1] or 'end of input'!r}", _span(tok)
        )

    def parse_symbol(self) -> Expr:
        tok = self.advance()
        word = tok[1]
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
        raise ExprSyntaxError(f"unknown symbol {word!r}", _span(tok))

    def _component(self, tok: _Token) -> int:
        mu = int(tok[1])
        if not 1 <= mu <= self.m:
            raise ExprSyntaxError(
                f"component {mu} out of range 1..{self.m}", _span(tok)
            )
        return mu

    def parse_index(self) -> MultiIndex:
        open_tok = self.expect("[")
        entries = []
        while True:
            if self.kind() == "-":
                raise ExprSyntaxError("negative index entry", _span(self.peek()))
            entries.append(int(self.expect("num")[1]))
            if self.kind() == ",":
                self.advance()
                continue
            close = self.expect("]")
            break
        if len(entries) != self.m:
            raise ExprSyntaxError(
                f"index has {len(entries)} entries, dimension is {self.m}",
                SourceSpan(open_tok[2], close[3]),
            )
        return MultiIndex(tuple(entries))

    def finish(self, result):
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", _span(tok))
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

def parse_tuple(text: str, shape: str, m: int) -> LabelTuple:
    """The tuple of the shape named in SHAPES that text spells at dimension m."""
    if shape not in SHAPES:
        raise ValueError(f"unknown tuple shape {shape!r}")
    cls = SHAPES[shape]
    cls(m)  # refuses a dimension below 1 before any component is read
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
        try:
            label = cls.label(name, m)
        except ValueError as err:
            raise ExprSyntaxError(str(err), span) from None
        if label in components:
            raise ExprSyntaxError(f"duplicate component {name!r}", span)
        try:
            components[label] = parse_expr(expr_text, m)
        except ExprSyntaxError as err:  # the span is within expr_text: make it the input's
            shift = start + len(name_text) + 1
            span = SourceSpan(err.span.start + shift, err.span.end + shift)
            raise ExprSyntaxError(err.message, span) from None
    return cls(m, components)


def print_tuple(value: LabelTuple) -> str:
    """Canonical tuple rendering; inverse of parse_tuple for its shape.

    A dense shape prints every label at m; the others print their nonzero
    entries, or their first label as 0 when they have none.
    """
    labels = value.labels(value.m) if value.dense else [label for label, _ in value.items()]
    parts = labels or value.labels(value.m)[:1]
    return "; ".join(f"{value.name(label)}: {value[label]}" for label in parts)


# -- structured serialization ------------------------------------------------


def expr_to_records(f: Expr) -> list[dict]:
    records = []
    for pairs, coeff in f.items():
        records.append(
            {
                "num": coeff.numerator,
                "den": coeff.denominator,
                "factors": [[v.label(), e] for v, e in pairs],
            }
        )
    return records


def variable_from_label(label: str, m: int) -> JetVariable:
    """The variable whose label() is label, read by the grammar's symbol rule."""
    parser = _Parser(label, m)
    return parser.finish(parser.parse_symbol()).variables()[0]


def records_to_expr(records: list[dict], m: int) -> Expr:
    """The expression the records denote; each factor list is one monomial.

    Expr(terms) orders the factors and rejects a repeat or an exponent below 1.
    """
    terms: dict[tuple, Fraction] = {}
    for record in records:
        coeff = Fraction(int(record["num"]), int(record["den"]))
        factors = tuple(
            (variable_from_label(label, m), int(e)) for label, e in record["factors"]
        )
        terms[factors] = terms.get(factors, Fraction(0)) + coeff
    return Expr(terms)
