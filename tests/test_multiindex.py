import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetns.multiindex import MultiIndex, indices_up_to, sub_indices, unit, zero

entries3 = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


def test_add_componentwise():
    a = MultiIndex((1, 0, 0))
    b = MultiIndex((0, 2, 0))
    assert a.add(b) == MultiIndex((1, 2, 0))


def test_add_identity():
    a = MultiIndex((2, 1, 3))
    assert a.add(zero(3)) == a


def test_unit_definition():
    assert unit(2, 3) == MultiIndex((0, 1, 0))
    assert zero(3).bump(2) == unit(2, 3)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        MultiIndex((1, 0)).add(MultiIndex((1, 0, 0)))


def test_negative_entry_rejected():
    with pytest.raises(ValueError):
        MultiIndex((1, -1, 0))


def test_subtract_examples():
    assert MultiIndex((2, 0, 0)).subtract(MultiIndex((1, 0, 0))) == MultiIndex((1, 0, 0))
    assert MultiIndex((0, 1, 0)).subtract(MultiIndex((1, 0, 0))) is None
    a = MultiIndex((3, 1, 2))
    assert a.subtract(a) == zero(3)


def test_binomial_examples():
    assert MultiIndex((2, 0, 0)).binomial(MultiIndex((1, 0, 0))) == 2
    assert MultiIndex((3, 2, 1)).binomial(zero(3)) == 1
    assert MultiIndex((2, 1, 0)).binomial(MultiIndex((1, 1, 0))) == 2
    assert MultiIndex((1, 0, 0)).binomial(MultiIndex((2, 0, 0))) == 0


@given(entries3, entries3)
def test_add_commutative(a, b):
    assert MultiIndex(a).add(MultiIndex(b)) == MultiIndex(b).add(MultiIndex(a))


@given(entries3, entries3, entries3)
def test_add_associative(a, b, c):
    x, y, z = MultiIndex(a), MultiIndex(b), MultiIndex(c)
    assert x.add(y).add(z) == x.add(y.add(z))


@given(entries3, entries3)
def test_sub_inverts_add(a, b):
    x, y = MultiIndex(a), MultiIndex(b)
    assert x.add(y).subtract(y) == x


def test_vandermonde_sum():
    # sum over k <= i of binom(i, k) equals 2^|i|
    for i in indices_up_to(3, 6):
        assert sum(i.binomial(k) for k in sub_indices(i)) == 2 ** i.total


def test_sort_key_orders_by_total_then_lex():
    found = indices_up_to(2, 2)
    assert found == [
        MultiIndex((0, 0)),
        MultiIndex((0, 1)),
        MultiIndex((1, 0)),
        MultiIndex((0, 2)),
        MultiIndex((1, 1)),
        MultiIndex((2, 0)),
    ]
