"""Controller text syntax: +, -, *, ^, /, parentheses, standard precedence."""

from __future__ import annotations

from fractions import Fraction

import pytest

from platoonctrl import parsing
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


@pytest.mark.parametrize("text", [
    "(" * 300 + "1" + ")" * 300,
    "-" * 5000 + "1",
    "2^" * 5000 + "2",
], ids=["parentheses-300", "unary-minus-5000", "power-5000"])
def test_nesting_past_the_recursion_limit(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_rational(text)
    # nesting well inside the limit still parses
    assert parse_rational("(" * 100 + "1" + ")" * 100) == one


@pytest.mark.parametrize("text, position", [
    ("2^2^2^2^2^2", 4),
    ("s^100000000", 2),
    ("((10^9999)^9999)^9999", 5),
    ("(1+s)^-5001", 6),
    ("2^5001", 2),
], ids=["tower", "s-1e8", "nested-10^9999", "negative", "edge"])
def test_power_past_the_size_cap(text, position):
    # |k| (degree + bit length) of base ** k is checked before the power is
    # computed, so none of these allocates it: 2^5001 is 2 * 5001 > 10^4
    with pytest.raises(ParseError, match="power too large") as info:
        parse_rational(text)
    assert info.value.position == position


def test_power_inside_the_size_cap():
    assert parse_rational("2^5000") == one * 2 ** 5000
    assert parse_rational("(1+s)^200") == (one + s) ** 200
    assert parse_rational("(1+s)^40/(2+s)^40") == ((one + s) / (2 + s)) ** 40


@pytest.mark.parametrize("text, position", [
    ("1e99999999999", 0),
    ("2+1e2501", 2),
    ("1E-2501", 0),
    ("1e" + "9" * 5000, 0),
], ids=["e99999999999", "e2501", "e-2501", "5000-digit-exponent"])
def test_literal_past_the_size_cap(text, position):
    # Fraction(text) would compute 10^|E| in full; |E| counts as the power
    # 10^|E|, so 4 |E| > 10^4 is refused first
    with pytest.raises(ParseError, match="number too large") as info:
        parse_rational(text)
    assert info.value.position == position


def test_literal_inside_the_size_cap():
    for e in (300, 400, 2500):
        assert parse_rational(f"1e{e}") == one * 10 ** e
        assert parse_rational(f"1e-{e}") == one / 10 ** e
    assert parse_rational("1.5E+0002") == one * 150


def _never_computed(*args):
    raise AssertionError("a power was computed")


@pytest.mark.parametrize("text, position", [
    ("(1+s)^5000*(1+s)^5000*(1+s)^5000", 10),
    ("2^5000/2^5000", 6),
    ("(1+s)^2500*(1+s)^2500+s", 21),
    ("+".join(["s"] * 5001), 9999),
], ids=["three-powers", "quotient", "sum-of-a-product", "sum-5001"])
def test_operation_past_the_size_cap(monkeypatch, text, position):
    # the operands' sizes add up past 10^4; every operand is sized, never
    # computed, before the refusal
    monkeypatch.setattr(RationalFunction, "__pow__", _never_computed)
    with pytest.raises(ParseError, match="expression too large") as info:
        parse_rational(text)
    assert info.value.position == position


def test_operation_inside_the_size_cap():
    # sizes adding up to exactly 10^4; a long chain is computed in one loop,
    # not nested past the recursion limit
    assert parse_rational("+".join(["s"] * 5000)) == 5000 * s
    assert parse_rational("2^4999*2") == one * 2 ** 5000


@pytest.mark.parametrize("text, position", [
    ("(1+s)^5000", 6),
    ("(1+s)^2500*(1+s)^2500", 6),
    # a power's base is computed while parsing, so its charge comes first
    ("((1+s)^2500)^1", 7),
], ids=["power", "product-of-powers", "power-as-a-base"])
def test_power_past_the_work_cap(monkeypatch, text, position):
    # inside the size cap, yet minutes of schoolbook products: each power is
    # charged its work from its computed base, and refused, before it is computed
    monkeypatch.setattr(RationalFunction, "__pow__", _never_computed)
    with pytest.raises(ParseError, match="too costly") as info:
        parse_rational(text)
    assert info.value.position == position


@pytest.fixture
def charges(monkeypatch):
    """The work each parse charged, in the order charged."""
    seen = []
    real = parsing._Parser.charge

    def charge(self, work, pos):
        seen.append(work)
        real(self, work, pos)

    monkeypatch.setattr(parsing._Parser, "charge", charge)
    return seen


@pytest.mark.parametrize("text", [
    "*".join(["(1+s)"] * 2400),
    "*".join(["s"] * 4900),
    "1/(1+s)^300+1/(2+s)^300",
], ids=["product-2400", "product-s-4900", "sum-of-quotients"])
def test_chain_past_the_work_cap(charges, text):
    # each operation is charged before it is computed, so the parse stops at
    # the first charge past the cap, having computed less than the cap's work
    with pytest.raises(ParseError, match="too costly"):
        parse_rational(text)
    assert sum(charges[:-1]) <= parsing._WORK_CAP < sum(charges)


@pytest.mark.parametrize("text", [
    "(1+s)^200", "(1+s)^40/(2+s)^40", "2^5000", "2^4999*2", "1e2500",
    "+".join(["s"] * 5000),
])
def test_work_inside_the_cap(charges, text):
    # the work cap refuses none of the size cap's documented examples
    parse_rational(text)
    assert sum(charges) <= parsing._WORK_CAP // 10
