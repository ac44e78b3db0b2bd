import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetns import exprio
from jetns.evolutionary import Characteristic
from jetns.exprio import (
    ExprSyntaxError,
    SourceSpan,
    expr_to_records,
    parse_expr,
    parse_index,
    parse_tuple,
    print_expr,
    print_tuple,
    records_to_expr,
)
from jetns.jetalgebra import MAX_COEFFICIENT_BITS, Expr, nu, p, u, x
from jetns.multiindex import MultiIndex
from jetns.reducedcomplex import ChiTupleCPE
from jetns.tuples import SHAPES

from conftest import random_expr, variable_pool

GOLDEN = Path(__file__).parent / "golden"


def test_parse_simple_sum():
    expr = parse_expr("u1_[1,0,0] + 2*p_[0,0,0]", 3)
    assert expr == u(1, (1, 0, 0)) + 2 * p((0, 0, 0))


def test_parse_negative_fraction_power():
    expr = parse_expr("-1/2*u2_[0,0,0]^2", 3)
    assert expr == Fraction(-1, 2) * u(2, (0, 0, 0)) ** 2


def test_dimension_mismatch_has_span():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("u1_[1,0]", 3)
    assert err.value.span == SourceSpan(3, 8)


def test_negative_index_entry_rejected():
    with pytest.raises(ExprSyntaxError, match="negative index entry"):
        parse_expr("u1_[1,0,-1]", 3)


def test_component_out_of_range():
    with pytest.raises(ExprSyntaxError, match="out of range"):
        parse_expr("u4_[0,0,0]", 3)
    with pytest.raises(ExprSyntaxError, match="out of range"):
        parse_expr("x9", 3)


def test_parse_index_is_the_grammar_index_rule():
    assert parse_index("[1, 0,2]", 3) == MultiIndex((1, 0, 2))
    for text, message in [
        ("[1,0]", "index has 2 entries, dimension is 3 at 0..5"),
        ("[1,0,0,0]", "index has 4 entries, dimension is 3 at 0..9"),
        ("[-1,0,0]", "negative index entry at 1..2"),
        ("1,0,0", "expected '\\[', found '1' at 0..1"),
        ("[1,0,0]]", "trailing input '\\]' at 7..8"),
    ]:
        with pytest.raises(ExprSyntaxError, match=message):
            parse_index(text, 3)


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 x2", 3)


def test_zero_prints_as_zero():
    assert print_expr(Expr.zero()) == "0"
    assert parse_expr("0", 3).is_zero()


def test_print_parse_print_is_stable():
    texts = [
        "nu*t - 3*x1*x2^2 + 7/5",
        "(u1_[0,0,0] + p_[0,1,0])^2",
        "-u2_[0,1,0] - u3_[0,0,1]",
    ]
    for text in texts:
        once = print_expr(parse_expr(text, 3))
        assert print_expr(parse_expr(once, 3)) == once


def test_tuple_parse_x1_translation():
    ch = parse_tuple(
        "f1: u1_[1,0,0]; f2: u2_[1,0,0]; f3: u3_[1,0,0]; f: p_[1,0,0]",
        "characteristic",
        3,
    )
    assert isinstance(ch, Characteristic)
    assert ch.velocity[0] == u(1, (1, 0, 0))
    assert ch.pressure == p((1, 0, 0))


def test_tuple_defaults_to_zero():
    chi = parse_tuple("chi01: 1", "chi_cpe", 3)
    assert isinstance(chi, ChiTupleCPE)
    assert chi.chi01 == Expr.const(1)
    assert chi.chi0.is_zero() and chi.chi1.is_zero() and not chi.chi_alpha


def test_tuple_unknown_component():
    with pytest.raises(ExprSyntaxError, match="unknown component"):
        parse_tuple("g: 1", "characteristic", 3)


def test_tuple_duplicate_component():
    with pytest.raises(ExprSyntaxError, match="duplicate"):
        parse_tuple("f1: 1; f1: 2", "characteristic", 3)
    with pytest.raises(ExprSyntaxError, match="duplicate"):
        parse_tuple("chi[2,0]: x1; chi[2,0]: x2", "chi_cpe", 3)


@pytest.mark.parametrize(
    "text, shape",
    [
        ("f01: x1", "characteristic"),
        ("f01: x1", "cotuple"),
        ("j01: x1", "current"),
        ("chi[2,0]: x1; chi[02,0]: x2", "chi_cpe"),
        ("chi[2,00]: x1", "chi_ce"),
        ("chi[01]: x1", "chi_ce"),
    ],
)
def test_tuple_accepts_only_printed_names(text, shape):
    # a padded name names a slot or label that print_tuple spells otherwise;
    # it was once validated and then dropped, or overwrote the printed one
    with pytest.raises(ExprSyntaxError, match="unknown component"):
        parse_tuple(text, shape, 3)


@pytest.mark.parametrize(
    "text, shape, span",
    [
        ("f1: x1; f2: u1_[0]", "characteristic", SourceSpan(15, 18)),
        ("f1: u1_[0]", "characteristic", SourceSpan(7, 10)),
        ("chi01: 1;  chi1 :x1 + ", "chi_cpe", SourceSpan(22, 22)),
        ("j1: x1; j2: x1 $ x2", "current", SourceSpan(15, 16)),
    ],
)
def test_tuple_expression_error_spans_the_input(text, shape, span):
    # the span of an error inside a component's expression was once
    # relative to that expression, not to the input
    with pytest.raises(ExprSyntaxError) as err:
        parse_tuple(text, shape, 3)
    assert err.value.span == span
    assert str(err.value).endswith(f"at {span.start}..{span.end}")


# One case per `raise ExprSyntaxError` in exprio.py, in source order:
# (shape or "expr", input, message, span start, span end).
_SYNTAX_ERROR_SITES = [
    ("expr", "x1 $ x2", "unexpected character '$'", 3, 4),
    ("expr", "(x1 + x2", "expected ')', found 'end of input'", 8, 8),
    ("expr", "1/0", "zero denominator", 2, 3),
    ("expr", "x1 + *", "expected a factor, found '*'", 5, 6),
    ("expr", "y1", "unknown symbol 'y'", 0, 1),
    ("expr", "u4_[0,0,0]", "component 4 out of range 1..3", 1, 2),
    ("expr", "u1_[1,0,-1]", "negative index entry", 8, 9),
    ("expr", "u1_[1,0]", "index has 2 entries, dimension is 3", 3, 8),
    ("expr", "x1 x2", "trailing input 'x'", 3, 4),
    ("characteristic", "f1 x1", "expected 'name: expression'", 0, 5),
    ("characteristic", "f1: 1; f1: 2", "duplicate component 'f1'", 6, 9),
    ("characteristic", "f1: x1; f2: u1_[0]", "index has 1 entries, dimension is 3", 15, 18),
    ("chi_cpe", "chi[9,0]: 1", "velocity component 9 out of range 2..3", 0, 8),
    ("characteristic", "f1: 1; g: 1", "unknown component 'g' for shape characteristic", 6, 8),
]


@pytest.mark.parametrize(
    "shape, text, message, start, end",
    _SYNTAX_ERROR_SITES,
    ids=[f"site{n:02d}" for n in range(1, len(_SYNTAX_ERROR_SITES) + 1)],
)
def test_every_syntax_error_site_pins_message_and_span(shape, text, message, start, end):
    with pytest.raises(ExprSyntaxError) as err:
        if shape == "expr":
            parse_expr(text, 3)
        else:
            parse_tuple(text, shape, 3)
    assert err.value.message == message
    assert err.value.span == SourceSpan(start, end)
    assert (err.value.span.start, err.value.span.end) == (start, end)
    assert str(err.value) == f"{message} at {start}..{end}"


@pytest.mark.parametrize(
    "text, char, start",
    [("x1^²", "²", 3), ("x²", "²", 1), ("u1_[1,0,²]", "²", 8), ("x٣", "٣", 1)],
    ids=["superscript-exponent", "superscript-component", "superscript-index", "arabic-indic"],
)
def test_non_ascii_digits_are_unexpected_characters(text, char, start):
    # str.isdigit() took these: '²' then failed in int() with no span, and
    # the Arabic-Indic '٣' was read as 3, so x٣ parsed as x3
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, 3)
    assert str(err.value) == f"unexpected character {char!r} at {start}..{start + 1}"


def test_the_literal_bound_is_the_digits_of_the_coefficient_bound(monkeypatch):
    # 2^MAX_COEFFICIENT_BITS has 301,030 digits; a numeric literal, an
    # exponent or an index entry one digit longer is refused with its span
    assert exprio.MAX_LITERAL_DIGITS == 301_030
    assert 10 ** 301_029 <= 2 ** MAX_COEFFICIENT_BITS < 10 ** 301_030
    monkeypatch.setattr(exprio, "MAX_LITERAL_DIGITS", 3)
    assert parse_expr("999*x1^100 + u1_[123,0,0]", 3) == 999 * x(1) ** 100 + u(1, (123, 0, 0))
    for text, start in [("1000", 0), ("x1^1000", 3), ("u1_[0,1000,0]", 6), ("2/1000", 2)]:
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 3)
        bound = "a numeric literal of 4 digits exceeds the bound of 3 digits"
        assert str(err.value) == f"{bound} at {start}..{start + 4}"


def test_tuple_chi_component_range():
    with pytest.raises(ExprSyntaxError, match="out of range"):
        parse_tuple("chi[9,0]: 1", "chi_cpe", 3)
    with pytest.raises(ExprSyntaxError, match="unknown component"):
        parse_tuple("chi[1]: 1", "chi_cpe", 3)
    with pytest.raises(ExprSyntaxError, match="unknown component"):
        parse_tuple("chi0: 1", "chi_ce", 3)
    with pytest.raises(ExprSyntaxError, match="unknown component"):
        parse_tuple("chi1: 1", "chi_ce", 3)


def test_corpus_round_trip_and_golden():
    corpus = (GOLDEN / "roundtrip_corpus.txt").read_text().splitlines()
    printed = (GOLDEN / "roundtrip_printed.txt").read_text().splitlines()
    assert len(corpus) == 50
    for line, expected in zip(corpus, printed):
        shape, text = line.split("\t")
        if shape == "expr":
            value = parse_expr(text, 3)
            out = print_expr(value)
            assert parse_expr(out, 3) == value
        else:
            value = parse_tuple(text, shape, 3)
            out = print_tuple(value)
            reparsed = parse_tuple(out, shape, 3)
            assert print_tuple(reparsed) == out
            assert value.shape == shape
        assert out == expected


def test_random_round_trip():
    rng = random.Random(2718)
    pool = variable_pool(allow_nu=True, allow_t=True)
    for _ in range(40):
        f = random_expr(rng, pool)
        assert parse_expr(print_expr(f), 3) == f
    # tuples of every shape, with about half the labels up to order 2 set
    for m in (2, 3, 4):
        pool = variable_pool(m, allow_nu=True, allow_t=True)
        for shape, cls in SHAPES.items():
            for _ in range(6):
                labels = [label for label in cls.labels(m, 2) if rng.random() < 0.5]
                value = cls(m, {label: random_expr(rng, pool, n_terms=2) for label in labels})
                assert parse_tuple(print_tuple(value), shape, m) == value


def test_printer_determinism():
    # structurally equal values give byte-identical strings
    a = (x(1) + nu) * (x(1) - nu)
    b = x(1) ** 2 - nu ** 2
    assert print_expr(a) == print_expr(b)


def test_structured_records_round_trip():
    rng = random.Random(314)
    pool = variable_pool(allow_nu=True, allow_t=True)
    for _ in range(20):
        f = random_expr(rng, pool)
        records = expr_to_records(f)
        assert records_to_expr(records, 3) == f
        # canonical order makes the JSON form deterministic
        assert json.dumps(records) == json.dumps(expr_to_records(f))


def test_records_shape():
    f = Fraction(2, 3) * u(1, (1, 0, 0)) * p((0, 0, 0)) + nu ** 2
    records = expr_to_records(f)
    assert records == [
        {"num": 1, "den": 1, "factors": [["nu", 2]]},
        {"num": 2, "den": 3, "factors": [["u1_[1,0,0]", 1], ["p_[0,0,0]", 1]]},
    ]


@pytest.mark.parametrize(
    "factors",
    [
        [["x1", 1], ["x1", 1]],
        [["x1", 1], ["u1_[0,0,0]", 2], ["x1", 2]],
        [["x1", 0]],
        [["x1", -1]],
        [["x1^1", 1]],
        [["(x1)", 1]],
        [["1*x1", 1]],
    ],
)
def test_records_reject_non_canonical_monomials(factors):
    # a repeated factor or an exponent below 1 would give an Expr that
    # differs from its canonical equal (x1*x1 vs x1^2, x1^0 vs 1), and a
    # factor is named only by the label a variable prints
    with pytest.raises(ValueError):
        records_to_expr([{"num": 1, "den": 1, "factors": factors}], 3)
