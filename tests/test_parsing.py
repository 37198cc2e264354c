"""Controller text syntax: +, -, *, ^, /, parentheses, standard precedence."""

from __future__ import annotations

from fractions import Fraction

import pytest

from platoonctrl.errors import ParseError
from platoonctrl.parsing import parse_rational
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import RationalFunction, one, s

ONE = Polynomial([1])
S = Polynomial([0, 1])


def test_basic_forms():
    assert parse_rational("1+s") == one + s
    assert parse_rational("s") == s
    assert parse_rational("1") == one
    assert parse_rational("1/2") == RationalFunction(Polynomial([Fraction(1, 2)]), ONE)
    assert parse_rational("(1+s)/(2+s)") == (one + s) / (RationalFunction(Polynomial([2, 1]), ONE))


def test_whitespace_insensitive():
    assert parse_rational(" 1 +  2*s + s^2 ") == parse_rational("1+2*s+s^2")


def test_precedence_and_unary():
    assert parse_rational("1+2*s^2") == one + 2 * (s * s)
    assert parse_rational("-s") == -s
    assert parse_rational("-s^2") == -(s * s)
    assert parse_rational("2*-s") == -2 * s
    assert parse_rational("(1+s)^3") == (one + s) ** 3


def test_power_right_associative():
    assert parse_rational("s^2^3") == s ** 8


def test_decimal_and_exponent_literals():
    f = parse_rational("0.5 + 1.5*s")
    assert f == RationalFunction(Polynomial([Fraction(1, 2), Fraction(3, 2)]), ONE)
    g = parse_rational("1e-2")
    assert g == RationalFunction(Polynomial([Fraction(1, 100)]), ONE)


def test_nested_division():
    f = parse_rational("1/(s*(1+s))")
    assert f == one / (s * (one + s))
    g = parse_rational("(1/(1+s))/(1/(2+s))")
    assert g == RationalFunction(Polynomial([2, 1]), ONE + S)


def test_exact_by_default():
    f = parse_rational("0.1+s")
    assert f.num.coeffs[0] == Fraction(1, 10), "decimals become exact rationals"


def test_parse_errors():
    for text in ("", "s+", "(1", "1)", "x", "s^s", "1//2", "s^(1/2)", "*s"):
        with pytest.raises(ParseError):
            parse_rational(text)


def test_division_by_zero_literal():
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("1/(s-s)")
    with pytest.raises(ParseError):
        parse_rational("0^-1")


def test_error_position():
    try:
        parse_rational("1+*s")
    except ParseError as exc:
        assert exc.position == 2
    else:
        pytest.fail("expected ParseError")
