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
bit length passes _POWER_CAP is refused before it is computed. So are a
literal whose exponent E, counted as the power 10^|E|, passes it, and a sum,
difference, product or quotient whose operands' degrees plus bit lengths
add up past it. Inside those caps an expression can still cost minutes of
schoolbook arithmetic, so each power, sum, difference, product and
quotient is charged an estimate of its work, from its computed operands,
before it is computed; the parse is refused once the charges pass
_WORK_CAP.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Tuple

from .errors import ParseError
from .poly import _POWER_CAP, Polynomial, _fraction
from .ratfun import RationalFunction

# base ** k has degree at most |k| deg(base) and integers of at most about
# |k| (deg(base) + bits(base)) bits, bits being the largest integer's bit
# length, so capping |k| (deg + bits) by _POWER_CAP caps both, and the
# result at about _POWER_CAP ** 2 bits
# the work one parse may spend, in the units of _product: a unit is 3-7 ns
# of CPython's integer arithmetic, so the cap is well under a second
_WORK_CAP = 10 ** 8
# the interpreter's cost of one coefficient operation, in the same units
_STEP = 20

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


class _Sized(NamedTuple):
    """A parsed value and its size, the value computed only on demand.

    The size of a literal or s is its _size; base^k gets |k| times its
    computed base's _size, and a chain of + - * / the sum of its operands'
    sizes. Every size is checked against _POWER_CAP as it is formed, so an
    expression past the cap is refused before any of it is computed. value
    charges each operation's work just before computing it, so those
    charges come after every size check, except that a power's base and
    exponent are computed, and charged, as soon as they are parsed.
    """

    size: int
    value: Callable[[], RationalFunction]


def _known(f: RationalFunction) -> _Sized:
    return _Sized(_size(f), lambda: f)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.spent = 0

    def charge(self, work: int, pos: int) -> None:
        self.spent += work
        if self.spent > _WORK_CAP:
            raise ParseError(f"expression too costly: its estimated schoolbook work "
                             f"passes {_WORK_CAP} word products", pos)

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[1])
        self.i += 1
        return tok

    def parse_expr(self) -> _Sized:
        return self._chain(self.parse_term, "+-")

    def parse_term(self) -> _Sized:
        return self._chain(self.parse_factor, "*/")

    def _chain(self, operand, ops: str) -> _Sized:
        # operand (op operand)*, computed left to right in one loop, so a
        # long sum nests no deeper than one term
        first = operand()
        size, steps = first.size, []
        while self.peek()[0] in ops:
            op, pos, _ = self.take()
            rhs = operand()
            size += rhs.size
            if size > _POWER_CAP:
                raise ParseError(f"expression too large: its operands' degrees plus bit "
                                 f"lengths add up past {_POWER_CAP}", pos)
            steps.append((op, pos, rhs))
        if not steps:
            return first

        def value() -> RationalFunction:
            val = first.value()
            for op, pos, rhs in steps:
                r = rhs.value()
                if op == "/" and r.num.is_zero:
                    raise ParseError("division by zero", pos)
                self.charge(_operation_work(op, val, r), pos)
                val = _OPS[op](val, r)
            return val

        return _Sized(size, value)

    def parse_factor(self) -> _Sized:
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.take()
            inner = self.parse_factor()
            return inner if tok[0] == "+" else _Sized(inner.size, lambda: -inner.value())
        return self.parse_power()

    def parse_power(self) -> _Sized:
        base = self.parse_atom()
        if self.peek()[0] != "^":
            return base
        b = base.value()
        self.take()
        pos = self.peek()[1]
        k = _as_int(self.parse_factor().value(), pos)
        if k < 0 and b.num.is_zero:
            raise ParseError("zero to a negative power", pos)
        if abs(k) * _size(b) > _POWER_CAP:
            raise ParseError(f"power too large: |exponent| times the base's degree plus "
                             f"bit length passes {_POWER_CAP}", pos)

        def value() -> RationalFunction:
            self.charge(_power_work(b, k), pos)
            return b ** k

        return _Sized(abs(k) * _size(b), value)

    def parse_atom(self) -> _Sized:
        tok = self.take()
        kind, pos, text = tok
        if kind == "num":
            try:
                value = _fraction(text)
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
            return _known(RationalFunction(Polynomial([value]), Polynomial([1])))
        if kind == "s":
            return _known(RationalFunction(Polynomial([0, 1]), Polynomial([1])))
        if kind == "(":
            val = self.parse_expr()
            self.take(")")
            return val
        raise ParseError(f"unexpected {text or kind!r}", pos)


def _size(f: RationalFunction) -> int:
    """Degree plus the bit length of the largest integer numerator or denominator."""
    ints = (*f.num.ints, f.num.den, *f.den.ints, f.den.den)
    return max(f.num.degree, f.den.degree) + max(abs(c).bit_length() for c in ints)


# ----------------------------------------------------------------------
# work estimates. A polynomial is sized as (length, bits), bits bounding
# the bit length of its integer numerators and their denominator. One
# coefficient product of a schoolbook product costs _STEP plus the product
# of the operands' 64-bit word counts.

def _shape(p: Polynomial) -> Tuple[int, int]:
    return len(p.ints), max((p.den, *map(abs, p.ints))).bit_length()


def _words(bits: int) -> int:
    return 1 + bits // 64


def _product(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, Tuple[int, int]]:
    """(work, shape) of the product of polynomials shaped a and b."""
    (la, ba), (lb, bb) = a, b
    return (la * lb * (_STEP + _words(ba) * _words(bb)),
            (la + lb - 1, ba + bb + (min(la, lb) - 1).bit_length()))


def _canonical(num: Tuple[int, int], den: Tuple[int, int]) -> int:
    """Work of RationalFunction's reduction of num/den.

    With a constant side the gcd and the reduction are linear passes,
    about a dozen coefficient operations per coefficient. Otherwise the
    primitive remainder sequence runs about n = min(len) rounds. By the
    subresultant bound, round j leaves n - j
    coefficients of about (d + 2 j) b bits, d being the difference of the
    lengths and b the inputs' bit length plus that of the longer length,
    and spends about four coefficient operations on each (two
    eliminations, a scaling and the content gcd):
    4 sum_{j<n} (n - j) (_STEP + ((d + 2 j) b / 64)^2), in closed form.
    """
    n, hi = sorted((num[0], den[0]))
    bits = max(num[1], den[1]) + hi.bit_length()
    if n <= 1:
        return 12 * (n + hi) * (_STEP + _words(bits))
    d = hi - n
    # sum_{j<n} (n - j) (d + 2 j)^2, from the sums of (n - j), j (n - j) and j^2 (n - j)
    growth = (d * d * n * (n - 1) // 2 + 4 * d * (n - 1) * n * (n + 1) // 6
              + n * n * (n * n - 1) // 3)
    return 4 * (_STEP * n * (n - 1) // 2 + growth * bits * bits // 64 ** 2)


def _operation_work(op: str, a: RationalFunction, b: RationalFunction) -> int:
    """Work of a op b, for op one of + - * /: its polynomial products and its reduction."""
    an, ad, bn, bd = map(_shape, (a.num, a.den, b.num, b.den))
    if op in "*/":
        # a * b pairs the numerators and the denominators, a / b crosses them
        x, y = (bn, bd) if op == "*" else (bd, bn)
        (w1, num), (w2, den) = _product(an, x), _product(ad, y)
        return w1 + w2 + _canonical(num, den)
    # (a.num b.den +- b.num a.den) / (a.den b.den), the sum over a common denominator
    (w1, p), (w2, q), (w3, den) = _product(an, bd), _product(bn, ad), _product(ad, bd)
    num = (max(p[0], q[0]), p[1] + q[1] + 1)
    return w1 + w2 + w3 + (num[0] + 1) * (_STEP + _words(num[1])) + _canonical(num, den)


def _power_work(f: RationalFunction, k: int) -> int:
    """Work of f ** k: Polynomial.__pow__'s squarings and products on the
    numerator and denominator, and the reduction that a negative k runs.

    p^j has length j (len p - 1) + 1 and, its coefficients' absolute sum
    being at most p's to the j, integers of at most j times the bit length
    of that sum or of p's denominator.
    """
    work, shapes = 0, []
    for p in (f.num, f.den):
        n = max(len(p.ints) - 1, 0)
        bits = max(p.den.bit_length(), sum(map(abs, p.ints)).bit_length())

        def shape(j: int) -> Tuple[int, int]:
            return j * n + 1, j * bits

        res, base, e = 0, 1, abs(k)
        while e:
            if e & 1:
                work += _product(shape(res), shape(base))[0]
                res += base
            if e > 1:
                work += _product(shape(base), shape(base))[0]
                base *= 2
            e >>= 1
        shapes.append(shape(res))
    return work + (_canonical(*shapes) if k < 0 else 0)


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
        tok = parser.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[2]!r}", tok[1])
        return val.value()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[1]) from None
