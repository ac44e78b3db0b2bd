import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetns import exprio, jetalgebra
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
from jetns.jetalgebra import MAX_COEFFICIENT_BITS, Expr, nu, p, t, u, x
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


def test_a_coefficient_the_parser_would_refuse_is_not_printed():
    # 10^301030 has one digit more than the parser reads; neither the text
    # nor the records form converts it, as numerator or as denominator
    for coeff in (10**exprio.MAX_LITERAL_DIGITS, Fraction(-3, 10**exprio.MAX_LITERAL_DIGITS)):
        for render in (str, expr_to_records):
            with pytest.raises(jetalgebra.ExpressionTooLargeError, match="bound of 301030 digits"):
                render(coeff * x(1) + 1)


def test_the_parser_bounds_the_bits_of_a_parenthesized_product(monkeypatch):
    # the parser checks a product's coefficients once it has multiplied, as
    # it checks a product of numbers; a product in the library is not bounded
    monkeypatch.setattr(jetalgebra, "MAX_COEFFICIENT_BITS", 64)
    assert parse_expr("(2^40)*(2^20)*x1", 3) == 2**60 * x(1)
    bound = "^a term's coefficient needs more than the bound of 64 bits$"
    for text in ("(2^40)*(2^40)", "(2^40 + x1)*(2^30)", "x1*(x2)*2^40*2^40", "(1/2^40*x1)*(1/2^30)"):
        with pytest.raises(jetalgebra.ExpressionTooLargeError, match=bound):
            parse_expr(text, 3)
    assert Expr.const(2**40) * 2**40 == 2**80


def test_the_parser_bounds_a_sums_common_denominator(monkeypatch):
    # the lcm of two coprime 10^6-bit denominators took a gcd of seconds;
    # past the bound together, a term joins only when one denominator
    # divides the other.  The refusal is conservative: 6^12 and 10^11 have
    # 31 and 37 bits and an lcm of 56, and are refused
    monkeypatch.setattr(jetalgebra, "MAX_COEFFICIENT_BITS", 64)
    half = Fraction(1, 2**40)
    assert parse_expr("1/2^40 + 1/2^40*x1 - 1/2^20*x2 + 1/2^50", 3) == (
        half + half * x(1) - Fraction(1, 2**20) * x(2) + Fraction(1, 2**50)
    )
    assert parse_expr("1/3^20 + 1/2^20*x1", 3) == Fraction(1, 3**20) + Fraction(1, 2**20) * x(1)
    bound = "^a sum's common denominator needs more than the bound of 64 bits$"
    refused = ("1/3^30 + 1/2^40*x1", "1/3^30 + 1/2^40", "x1*(1/3^30 + 1/2^40)",
               "(1/3^30)*x1 - 1/2^40*x2", "1/6^12 + 1/10^11*x1")
    for text in refused:
        with pytest.raises(jetalgebra.ExpressionTooLargeError, match=bound):
            parse_expr(text, 3)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
def test_the_library_parser_reads_literals_past_the_int_string_limit():
    # int() of more than 4300 digits raised a plain ValueError with no span
    # in any program that had not run the CLI; the limit is left as it was
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert parse_expr("7" * 5000, 3) == 7 * (10**5000 - 1) // 9
        assert parse_expr("1/" + "3" * 4301 + "*x1", 3) == Fraction(3, 10**4301 - 1) * x(1)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
def test_a_long_component_exponent_or_index_entry_passes_the_int_string_limit():
    # str() of a component or exponent in its error text, or of an index
    # entry in the variable's label, raised the conversion-limit ValueError
    # with no span in any program that had not run the CLI
    nines, ones = "9" * 5000, "1" * 5000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x" + nines, 3)
        assert (err.value.message, err.value.span) == (f"component {nines} out of range 1..3", SourceSpan(1, 5001))
        with pytest.raises(jetalgebra.ExpressionTooLargeError) as err:
            parse_expr("x1^" + nines, 3)
        assert str(err.value) == f"a power of degree {nines} exceeds the degree bound 10000"
        # an index entry has no bound short of the literal's: the jet is read
        # and printed, as the CLI always did
        jet = parse_expr(f"u1_[{ones},0,0]", 3)
        assert jet == u(1, ((10**5000 - 1) // 9, 0, 0))
        assert str(jet) == f"u1_[{ones},0,0]"
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
def test_the_library_prints_coefficients_past_the_int_string_limit():
    # str() of a 5000-digit coefficient raised the conversion-limit
    # ValueError in a program that had not run the CLI; a fresh process
    # has the default limit
    child = (
        "import sys, jetns\n"
        "text = '-1/' + '3' * 4400 + ' + ' + '7' * 5000 + '*x1'\n"
        "f = jetns.parse_expr(text, 3)\n"
        "print(str(f) == text, jetns.parse_expr(str(f), 3) == f, str(jetns.parse_expr('7' * 5000, 3)) == '7' * 5000)\n"
        "print(sys.get_int_max_str_digits())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONINTMAXSTRDIGITS", "PYTHONPATH")}
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env={**env, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True True\n4300\n"


def test_a_label_token_reports_the_token_path_errors():
    # a label in printed spelling is one token; its errors keep the message
    # and span the spelling with spaces, which takes the token path, reports
    cases = [
        ("p_[1,0]", "p_[1, 0]", "index has 2 entries, dimension is 3", 2),
        ("u0_[0,0,0]", "u0_[0, 0,0]", "component 0 out of range 1..3", 1),
        ("x1 u1_[0,0,0]", "x1 u1 _[0,0,0]", "trailing input 'u'", 3),
        ("x1^u1_[0,0,0]", "x1^u1_ [0,0,0]", "expected 'num', found 'u'", 3),
    ]
    for compact, spaced, message, start in cases:
        errors = []
        for text in (compact, spaced):
            with pytest.raises(ExprSyntaxError) as err:
                parse_expr(text, 3)
            errors.append(err.value)
        assert [e.message for e in errors] == [message, message]
        assert [e.span.start for e in errors] == [start, start]
    with pytest.raises(ExprSyntaxError, match="expected '\\[', found 'u' at 0..1"):
        parse_index("u1_[0,0,0]", 3)


def _label_tokens(v) -> list[str]:
    return re.findall(r"[0-9]+|[a-z]+|.", v.label())


def _random_text(rng: random.Random, pool, depth: int = 0) -> tuple[list[str], Expr]:
    """The tokens of a random expression, and the Expr ring operations build for it."""
    tokens, total = [], Expr.zero()
    for k in range(rng.randint(1, 3)):
        negative = rng.random() < 0.4
        if negative or k:
            tokens.append("-" if negative else "+")
        term_tokens, term = _random_term(rng, pool, depth)
        tokens += term_tokens
        total = total - term if negative else total + term
    return tokens, total


def _random_term(rng: random.Random, pool, depth: int) -> tuple[list[str], Expr]:
    tokens, term = [], Expr.const(1)
    for j in range(rng.randint(1, 3)):
        if j:
            tokens.append("*")
        roll = rng.random()
        if roll < 0.3:
            num, den = rng.randint(0, 12), rng.choice([None, 1, 2, 3, 5])
            base_tokens = [str(num)] + ([] if den is None else ["/", str(den)])
            base = Expr.const(Fraction(num, den or 1))
        elif roll < 0.85 or depth >= 2:
            v = rng.choice(pool)
            base_tokens, base = _label_tokens(v), Expr.var(v)
        else:
            inner, base = _random_text(rng, pool, depth + 1)
            base_tokens = ["(", *inner, ")"]
        if rng.random() < 0.5:
            n = rng.randint(0, 3)
            base_tokens += ["^", str(n)]
            base = base ** n
        tokens += base_tokens
        term = term * base
    return tokens, term


def test_parsing_agrees_with_the_ring_operations_that_built_the_text():
    # whitespace may stand between any two tokens, inside a label too, so
    # labels take the one-token path or the token path at random
    rng = random.Random(4242)
    pool = variable_pool(allow_nu=True, allow_t=True)
    spaces = ["", "", "", "", " ", "  ", "\t", "\n"]
    paths = set()
    for _ in range(400):
        tokens, expected = _random_text(rng, pool)
        text = rng.choice(spaces) + "".join(tok + rng.choice(spaces) for tok in tokens)
        assert parse_expr(text, 3) == expected, text
        paths.update(kind for kind, *_ in exprio._tokenize(text))
    assert {"label", "word", "(", "/", "^"} <= paths


def test_atom_terms_parse_without_expr_arithmetic(monkeypatch):
    # a term of numbers and variables, with their powers, goes straight into
    # the packed term map; no Expr is multiplied, raised or summed
    calls = []
    for name in ("__mul__", "__rmul__", "__pow__", "__add__", "__radd__", "__sub__", "__neg__"):
        real = getattr(Expr, name)
        monkeypatch.setattr(Expr, name, lambda *args, _r=real, _n=name: calls.append(_n) or _r(*args))
    real_sum = jetalgebra.expr_sum
    monkeypatch.setattr(jetalgebra, "expr_sum", lambda terms: calls.append("expr_sum") or real_sum(terms))
    text = "-3/2*u1_[1,0,0]^2*x2 + nu*t^3 - 7*p_[0,2,0]*u3_[0, 0,1] + 5^3*x1^0*2/4 - x2*x2"
    value = parse_expr(text, 3)
    assert calls == []
    parse_expr("2*(x1 + x2)", 3)  # a parenthesized factor still multiplies
    assert "__mul__" in calls
    monkeypatch.undo()
    assert value == (
        Fraction(-3, 2) * u(1, (1, 0, 0)) ** 2 * x(2) + nu * t ** 3
        - 7 * p((0, 2, 0)) * u(3, (0, 0, 1)) + Fraction(125, 2) - x(2) ** 2
    )


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
