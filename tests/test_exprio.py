import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetns.evolutionary import Characteristic
from jetns.exprio import (
    ExprSyntaxError,
    SourceSpan,
    expr_to_records,
    parse_expr,
    parse_tuple,
    print_expr,
    print_tuple,
    records_to_expr,
    tuple_shape,
)
from jetns.jetalgebra import Expr, nu, p, u, x
from jetns.reducedcomplex import ChiTupleCPE

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
            assert tuple_shape(value) == shape
        assert out == expected


def test_random_round_trip():
    rng = random.Random(2718)
    pool = variable_pool(allow_nu=True, allow_t=True)
    for _ in range(40):
        f = random_expr(rng, pool)
        assert parse_expr(print_expr(f), 3) == f


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
    [[["x1", 1], ["x1", 1]], [["x1", 1], ["u1_[0,0,0]", 2], ["x1", 2]], [["x1", 0]], [["x1", -1]]],
)
def test_records_reject_non_canonical_monomials(factors):
    # a repeated factor or an exponent below 1 would give an Expr that
    # differs from its canonical equal (x1*x1 vs x1^2, x1^0 vs 1)
    with pytest.raises(ValueError):
        records_to_expr([{"num": 1, "den": 1, "factors": factors}], 3)
