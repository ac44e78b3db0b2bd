"""The label-keyed tuple type: what its constructor refuses and its linear operations."""

import operator
import re

import pytest

from jetns.exprio import ExprSyntaxError, parse_tuple, print_tuple
from jetns.jetalgebra import x
from jetns.tuples import SHAPES, ChiTupleCE, ChiTupleCPE


@pytest.mark.parametrize(
    "op, b_op_2b",
    [
        (operator.add, "f1: 3*x1; f2: 3*x2; f3: 3*x3; f: 3"),
        (operator.sub, "f1: -x1; f2: -x2; f3: -x3; f: -1"),
    ],
    ids=["add", "sub"],
)
def test_linear_operations_refuse_another_shape_or_dimension(op, b_op_2b):
    # the velocity tuples were once zipped, so b - a printed
    # f1: 0; f2: 0; f: 0 and lost f3, and a characteristic plus a cotuple
    # was a characteristic
    a = parse_tuple("f1: x1; f2: x2; f: 1", "characteristic", 2)
    b = parse_tuple("f1: x1; f2: x2; f3: x3; f: 1", "characteristic", 3)
    c = parse_tuple("f1: x1; f: 1", "cotuple", 2)
    for left, right in [(b, a), (a, b), (a, c), (c, a)]:
        with pytest.raises(ValueError, match="cannot combine"):
            op(left, right)
    with pytest.raises(ValueError, match="cannot combine a ChiTupleCE at m=3 with a ChiTupleCPE"):
        op(ChiTupleCE(3, {("chi01",): x(1)}), ChiTupleCPE(3, {("chi01",): x(1)}))
    assert print_tuple(op(b, 2 * b)) == b_op_2b


@pytest.mark.parametrize(
    "shape, label, name, message",
    [
        ("chi_ce", ("chi_alpha", 0, 9), "chi[9,0]", "velocity component 9 out of range 2..3"),
        ("chi_cpe", ("chi_alpha", 1, 1), "chi[1,1]", "velocity component 1 out of range 2..3"),
        ("chi_cpe", ("chi_p", 0), "chi[0]", "ChiTupleCPE has no label ('chi_p', 0)"),
        ("chi_ce", ("chi0",), "chi0", "ChiTupleCE has no label ('chi0',)"),
        ("chi_ce", ("chi1",), "chi1", "ChiTupleCE has no label ('chi1',)"),
        ("characteristic", ("u", 4), "f4", "velocity component 4 out of range 1..3"),
        ("cotuple", ("u", 0), "f0", "velocity component 0 out of range 1..3"),
        ("current", ("j", 4), "j4", "direction 4 out of range 1..3"),
        ("current", ("u", 1), "f1", "CurrentTuple has no label ('u', 1)"),
    ],
)
def test_constructors_refuse_the_labels_the_parser_refuses(shape, label, name, message):
    # ChiTupleCE({("chi_alpha", 0, 9): x1}) was once built and printed
    # chi[9,0]: x1, which the parser refuses at m = 3
    with pytest.raises(ValueError, match=re.escape(message)):
        SHAPES[shape](3, {label: x(1)})
    with pytest.raises(ExprSyntaxError):
        parse_tuple(f"{name}: x1", shape, 3)


def test_constructor_refuses_a_negative_order():
    with pytest.raises(ValueError, match=re.escape("first-direction order -1 out of range 0..")):
        ChiTupleCE(3, {("chi_p", -1): x(1)})


@pytest.mark.parametrize("m", [0, -2])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_dimension_below_one_is_refused(shape, m):
    # parse_tuple once indexed slots[m], an IndexError at m = -2, and gave
    # an empty cotuple at m = 0
    with pytest.raises(ValueError, match=f"dimension {m} is below 1"):
        SHAPES[shape](m)
    with pytest.raises(ValueError, match=f"dimension {m} is below 1") as err:
        parse_tuple("chi01: 1; f: 1", shape, m)
    assert not isinstance(err.value, ExprSyntaxError)
