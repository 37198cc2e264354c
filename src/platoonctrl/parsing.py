"""Parser for controller expressions such as '1 + 0.5*s' or '(s+1)^2/(s+2)'.

Grammar (whitespace-insensitive, standard precedence, ^ right-associative
and binding tighter than unary minus):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 's' | '(' expr ')'

Numbers are decimal literals with optional exponent ('2', '0.5', '1e-3') and
parse to exact rationals, so '0.1' really is 1/10. Exponents must reduce to
integer constants, and a power whose |exponent| times its base's degree plus
bit length passes _POWER_CAP is refused before it is computed.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .poly import Polynomial
from .ratfun import RationalFunction

# base ** k has degree at most |k| deg(base) and integers of at most about
# |k| (deg(base) + bits(base)) bits, bits being the largest integer's bit
# length, so capping |k| (deg + bits) caps both, and the result at about
# _POWER_CAP ** 2 bits
_POWER_CAP = 10 ** 4

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")


def _tokenize(text: str):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/^()":
            toks.append((ch, pos, ch))
            pos += 1
            continue
        if ch in "sS":
            toks.append(("s", pos, ch))
            pos += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            toks.append(("num", pos, m.group()))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    toks.append(("end", n, ""))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[1])
        self.i += 1
        return tok

    def parse_expr(self) -> RationalFunction:
        val = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def parse_term(self) -> RationalFunction:
        val = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op, pos, _ = self.take()
            rhs = self.parse_factor()
            if op == "*":
                val = val * rhs
            else:
                if rhs.num.is_zero:
                    raise ParseError("division by zero", pos)
                val = val / rhs
        return val

    def parse_factor(self) -> RationalFunction:
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.take()
            inner = self.parse_factor()
            return inner if tok[0] == "+" else -inner
        return self.parse_power()

    def parse_power(self) -> RationalFunction:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            pos = self.peek()[1]
            k = _as_int(self.parse_factor(), pos)
            if k < 0 and base.num.is_zero:
                raise ParseError("zero to a negative power", pos)
            if abs(k) * _size(base) > _POWER_CAP:
                raise ParseError(f"power too large: |exponent| times the base's degree plus "
                                 f"bit length passes {_POWER_CAP}", pos)
            return base ** k
        return base

    def parse_atom(self) -> RationalFunction:
        tok = self.take()
        kind, pos, text = tok
        if kind == "num":
            return RationalFunction(Polynomial([Fraction(text)]), Polynomial([1]))
        if kind == "s":
            return RationalFunction(Polynomial([0, 1]), Polynomial([1]))
        if kind == "(":
            val = self.parse_expr()
            self.take(")")
            return val
        raise ParseError(f"unexpected {text or kind!r}", pos)


def _size(f: RationalFunction) -> int:
    """Degree plus the bit length of the largest integer numerator or denominator."""
    ints = (*f.num.ints, f.num.den, *f.den.ints, f.den.den)
    return max(f.num.degree, f.den.degree) + max(abs(c).bit_length() for c in ints)


def _as_int(f: RationalFunction, pos: int) -> int:
    if f.den.degree != 0 or f.num.degree > 0:
        raise ParseError("exponent must be an integer constant", pos)
    val = f.num.coeffs[0] if f.num.coeffs else Fraction(0)
    val = val / f.den.coeffs[0]
    if val.denominator != 1:
        raise ParseError("exponent must be an integer constant", pos)
    return int(val)


def parse_rational(text: str) -> RationalFunction:
    """Parse a controller expression into an exact RationalFunction.

    The parser descends recursively, so an expression nested past Python's
    recursion limit (about 200 parentheses, or a unary-minus or '^' chain
    about a thousand long) is a ParseError too.
    """
    parser = _Parser(_tokenize(text))
    try:
        val = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[1]) from None
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[2]!r}", tok[1])
    return val
