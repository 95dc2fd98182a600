import pytest
from hypothesis import given
from hypothesis import strategies as st

from genus_spectrum import HalfInt, InputError


def test_basic_forms():
    assert str(HalfInt.of(3)) == "3"
    assert str(HalfInt(7)) == "7/2"
    assert str(HalfInt(-1)) == "-1/2"
    assert HalfInt(6).to_int() == 3
    assert HalfInt.of(2).is_integral
    assert not HalfInt(5).is_integral


def test_parse_round_trip():
    for text in ("0", "-1", "287/2", "-1/2", "45/2", "125"):
        assert str(HalfInt.parse(text)) == text
    with pytest.raises(InputError):
        HalfInt.parse("4/2")
    with pytest.raises(InputError):
        HalfInt.parse("x")
    with pytest.raises(InputError):
        HalfInt(5).to_int()


def test_rejects_non_int_doubled_values():
    # bool is a subclass of int, but True is not a doubled value
    for bad in (True, False, 1.0, "2"):
        with pytest.raises(InputError):
            HalfInt(bad)
        with pytest.raises(InputError):
            HalfInt.of(bad)
        with pytest.raises(InputError):
            HalfInt.coerce(bad)


def test_arithmetic_and_order():
    assert HalfInt(1) + HalfInt(1) == 1
    assert HalfInt.of(2) - 3 == -1
    assert 3 - HalfInt(1) == HalfInt(5)
    assert -HalfInt(1) == HalfInt(-1)
    assert HalfInt(1) * 5 == HalfInt(5)
    assert 2 * HalfInt(1) == 1
    assert HalfInt(1) < 1 < HalfInt(3) <= HalfInt.of(2) > 0
    assert sorted([HalfInt.of(1), HalfInt(1), HalfInt(-1)]) == [
        HalfInt(-1),
        HalfInt(1),
        HalfInt.of(1),
    ]


def test_hash_contract():
    assert hash(HalfInt.of(3)) == hash(3)
    assert {HalfInt.of(2), 2} == {2}
    assert len({HalfInt(1), HalfInt.of(1)}) == 2


@given(st.integers(), st.integers())
def test_addition_matches_doubled_ints(a, b):
    assert (HalfInt(a) + HalfInt(b)).twice == a + b
    assert (HalfInt(a) - HalfInt(b)).twice == a - b
    assert (HalfInt(a) < HalfInt(b)) == (a < b)


@given(st.integers())
def test_parse_format_round_trip(a):
    v = HalfInt(a)
    assert HalfInt.parse(str(v)) == v
