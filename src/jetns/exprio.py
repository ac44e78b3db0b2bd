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

The parser reads in one pass.  A jet label spelled as print_expr writes
it, like u1_[1,0,0], is one token, checked with the messages and spans of
the token path, which every other spelling (spaces, a sign, no ']', a
literal past the bound) takes.  A term of numbers and variables, with
their powers, is one coefficient and one list of variable ranks, added
into the expression's one map of packed monomials; the Expr is built once
at the end.  Such a term is refused past MAX_DEGREE, and a product of its
numbers past MAX_COEFFICIENT_BITS.  Expr arithmetic runs only from a
term's first parenthesized factor on, and for a power past a bound, which
Expr.__pow__ refuses with its own text.  Numeric literals are read, and
numbers printed, below the interpreter's int-string limit, which is left
as it is (multiindex._int and _decimal).

The structured serialization mirrors the canonical monomial map: a list
of records with integer numerator and denominator and a factor list of
(variable label, exponent) pairs, in canonical order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import log10, log2

from . import jetalgebra
from .jetalgebra import (
    MAX_COEFFICIENT_BITS,
    Expr,
    ExpressionTooLargeError,
    JetVariable,
    NU_VAR,
    T_VAR,
    _check_degree,
    _from_coefficients,
    xvar,
)
from .multiindex import _SHORT_DIGITS, MultiIndex, _decimal, _int
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
# build: the tokenizer refuses a longer numeric literal before it reads it.
MAX_LITERAL_DIGITS = int(MAX_COEFFICIENT_BITS * log10(2)) + 1

# A jet label as the printer spells it, u<mu>_[i,...] or p_[i,...]: one
# token.  Any other spelling, such as one with spaces, takes the token path.
_LABEL = re.compile(r"(?:u([0-9]+)|p)_(\[([0-9]+(?:,[0-9]+)*)\])")

# A token is a plain (kind, text, start, end) tuple; kind is 'num', 'word',
# 'label', 'end' or a literal symbol.  A 'num' token adds its int value, and
# a 'label' token, whose text and span are its first letter, adds its
# re.Match.  A SourceSpan is built only for an error.
_Token = tuple


def _span(tok: _Token) -> SourceSpan:
    return SourceSpan(tok[2], tok[3])


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    # a label this short holds no literal past the bound, and int() reads each one
    label_chars = min(MAX_LITERAL_DIGITS, _SHORT_DIGITS)
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
            digits = text[pos:end]
            tokens.append(("num", digits, pos, end, _int(digits)))
            pos = end
            continue
        if ch.isalpha():
            if ch == "u" or ch == "p":
                match = _LABEL.match(text, pos)
                if match is not None and match.end() - pos <= label_chars:
                    tokens.append(("label", ch, pos, pos + 1, match))
                    pos = match.end()
                    continue
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


def _check_coefficient(c: int | Fraction) -> None:
    """Refuse a product of numbers needing more than MAX_COEFFICIENT_BITS bits."""
    bound = jetalgebra.MAX_COEFFICIENT_BITS
    top = max(abs(c.numerator), c.denominator)
    if top.bit_length() > bound and log2(top) > bound:
        raise ExpressionTooLargeError(
            f"a term's coefficient needs more than the bound of {bound} bits"
        )


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
        """The sum of the terms, added into one map of packed monomials and built once."""
        data: dict[tuple[int, ...], int | Fraction] = {}
        sign = 1
        if self.kind() == "-":
            self.advance()
            sign = -1
        while True:
            self.parse_term(data, sign)
            kind = self.kind()
            if kind != "+" and kind != "-":
                return _from_coefficients(data)
            self.advance()
            sign = 1 if kind == "+" else -1

    def parse_term(self, data: dict, coeff: int | Fraction) -> None:
        """Add coeff times the next term into data.

        Numbers and variables, with their powers, multiply into one
        coefficient and one list of variable ranks.  From its first
        parenthesized factor on, the term is a product of Exprs, left to
        right, each bounded by Expr.__mul__.
        """
        ranks: list[int] = []
        product = None  # the term as an Expr, once a factor is one
        while True:
            factor = self.parse_factor()
            if product is not None or type(factor) is Expr:
                if product is None:
                    product = _from_coefficients({tuple(sorted(ranks)): coeff})
                if type(factor) is list:
                    factor = _from_coefficients({tuple(factor): 1})
                product = product * factor
            elif type(factor) is list:
                ranks += factor
                _check_degree(len(ranks))
            elif coeff == 1 or coeff == -1:
                coeff *= factor
            else:
                coeff *= factor
                _check_coefficient(coeff)
            if self.tokens[self.pos][0] != "*":
                break
            self.pos += 1
        if product is None:
            mono = tuple(sorted(ranks))
            data[mono] = data.get(mono, 0) + coeff
        else:
            for mono, c in product._unsorted_items():
                data[mono] = data.get(mono, 0) + c

    def parse_factor(self) -> int | Fraction | list[int] | Expr:
        """A number, a variable's rank repeated by its exponent, or an Expr.

        A power past the degree or coefficient-bit bound is left to
        Expr.__pow__, which refuses it with its own text.
        """
        base = self.parse_base()
        if self.tokens[self.pos][0] != "^":
            return [base._rank] if type(base) is JetVariable else base
        self.pos += 1
        n = self.expect("num")[4]
        if type(base) is JetVariable:
            if n <= jetalgebra.MAX_DEGREE:
                return [base._rank] * n
            return Expr.var(base) ** n
        if type(base) is Expr:
            return base ** n
        top = max(abs(base.numerator), base.denominator)
        bound = jetalgebra.MAX_COEFFICIENT_BITS
        if top > 1 and (n > bound or n * log2(top) > bound):
            return Expr.const(base) ** n
        return base ** n

    def parse_base(self) -> int | Fraction | JetVariable | Expr:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "label" or kind == "word":
            return self.parse_symbol()
        if kind == "num":
            self.pos += 1
            if self.tokens[self.pos][0] != "/":
                return tok[4]
            self.pos += 1
            den = self.expect("num")
            if den[4] == 0:
                raise ExprSyntaxError("zero denominator", _span(den))
            return Fraction(tok[4], den[4])
        if kind == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ExprSyntaxError(
            f"expected a factor, found {tok[1] or 'end of input'!r}", _span(tok)
        )

    def parse_symbol(self) -> JetVariable:
        tok = self.advance()
        if tok[0] == "label":
            return self._label(tok[4])
        word = tok[1]
        if word == "nu":
            return NU_VAR
        if word == "t":
            return T_VAR
        if word == "x":
            num = self.expect("num")
            return xvar(self._component(num[4], num[2:4]))
        if word == "u":
            num = self.expect("num")
            mu = self._component(num[4], num[2:4])
            self.expect("_")
            return JetVariable("u", mu, self.parse_index())
        if word == "p":
            self.expect("_")
            return JetVariable("p", 0, self.parse_index())
        raise ExprSyntaxError(f"unknown symbol {word!r}", _span(tok))

    def _label(self, match: re.Match) -> JetVariable:
        """The variable of a label token, checked as the token path checks it."""
        mu_digits, _, entry_digits = match.groups()
        if mu_digits is not None:
            mu = self._component(int(mu_digits), match.span(1))
        index = self._index(tuple(map(int, entry_digits.split(","))), match.span(2))
        return JetVariable("p", 0, index) if mu_digits is None else JetVariable("u", mu, index)

    # The two checks of a label, shared by the label token and the token
    # path; span is the (start, end) an error reports.

    def _component(self, mu: int, span: tuple[int, int]) -> int:
        if not 1 <= mu <= self.m:
            raise ExprSyntaxError(
                f"component {_decimal(mu)} out of range 1..{self.m}", SourceSpan(*span)
            )
        return mu

    def _index(self, entries: tuple, span: tuple[int, int]) -> MultiIndex:
        if len(entries) != self.m:
            raise ExprSyntaxError(
                f"index has {len(entries)} entries, dimension is {self.m}", SourceSpan(*span)
            )
        return MultiIndex(entries)

    def parse_index(self) -> MultiIndex:
        open_tok = self.expect("[")
        entries = []
        while True:
            if self.kind() == "-":
                raise ExprSyntaxError("negative index entry", _span(self.peek()))
            entries.append(self.expect("num")[4])
            if self.kind() == ",":
                self.advance()
                continue
            close = self.expect("]")
            break
        return self._index(tuple(entries), (open_tok[2], close[3]))

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
    return parser.finish(parser.parse_symbol())


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
