"""Rational type: parsing, formatting, exact square roots."""

import pytest
from conftest import rat, sqrt_exact
from hypothesis import given
from hypothesis import strategies as st

from kedge.ratmath import (
    Rat,
    RatParseError,
    ZERO,
    format_rat,
    isqrt_exact,
    parse_rat,
    sign,
)

rationals = st.fractions().map(lambda f: Rat(f.numerator) / Rat(f.denominator))


def test_constants():
    assert ZERO == 0
    assert rat(3, 4) == Rat(3) / Rat(4)
    assert rat(rat(3, 4)) == rat(3, 4)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("21/23", rat(21, 23)),
        ("-1/21", rat(-1, 21)),
        ("3/1", rat(3)),
        ("7", rat(7)),
        ("  5/8 ", rat(5, 8)),
        ("0/5", ZERO),
    ],
)
def test_parse_rat(text, expected):
    assert parse_rat(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "a/b", "1/0", "1/2/3", "0.5", "1e-3", "nan",
     # ASCII digits only, one sign per side: int() and Fraction() take these.
     "1_0/20", "1/2_0", "\u0661/\u0662", "1_0", "1/ 2", "+-1", "1e-1_0000"],
)
def test_parse_rat_rejects(text):
    with pytest.raises(RatParseError):
        parse_rat(text)


def test_parse_decimal_opt_in_is_exact_base_10():
    assert parse_rat("0.5", accept_decimal=True) == rat(1, 2)
    # 0.1 must become 1/10, not the nearest binary float.
    assert parse_rat("0.1", accept_decimal=True) == rat(1, 10)
    assert parse_rat("1e-3", accept_decimal=True) == rat(1, 1000)
    assert parse_rat(".5", accept_decimal=True) == parse_rat("+5E-1", accept_decimal=True)
    for text in ("0.5.1", "1e-1_0000", "1_0.5", "\u0660.5", "1e"):
        with pytest.raises(RatParseError, match="malformed"):
            parse_rat(text, accept_decimal=True)


def test_parse_rat_size_bounds():
    assert parse_rat("9" * 100) == Rat(int("9" * 100))
    assert parse_rat("1e-100", accept_decimal=True) == rat(1, 10**100)
    for text in ("9" * 101, "1/" + "3" * 100, "1e-101", "1e+101", "1e-999999"):
        with pytest.raises(RatParseError, match="too large"):
            parse_rat(text, accept_decimal=True)


def test_format_always_includes_denominator():
    assert format_rat(rat(1)) == "1/1"
    assert format_rat(rat(-1, 21)) == "-1/21"
    assert format_rat(rat(2, 4)) == "1/2"


@given(rationals)
def test_parse_format_round_trip(x):
    assert parse_rat(format_rat(x)) == x


@given(rationals)
def test_sign_trichotomy(x):
    s = sign(x)
    assert s in (-1, 0, 1)
    assert (s == 0) == (x == 0)
    assert sign(-x) == -s


def test_isqrt_exact():
    assert isqrt_exact(0) == 0
    assert isqrt_exact(49) == 7
    assert isqrt_exact(50) is None
    assert isqrt_exact(-4) is None


@given(st.integers(min_value=0, max_value=10**12))
def test_isqrt_exact_squares(k):
    assert isqrt_exact(k * k) == k


def test_sqrt_exact():
    assert sqrt_exact(rat(9, 4)) == rat(3, 2)
    assert sqrt_exact(ZERO) == 0
    assert sqrt_exact(rat(2)) is None
    assert sqrt_exact(rat(1, 3)) is None


@given(rationals)
def test_sqrt_exact_inverts_squaring(x):
    assert sqrt_exact(x * x) == abs(x)
