"""Polynomials in the indeterminate s with exact rational coefficients.

Every coefficient is a `fractions.Fraction`, so identities (gcd reduction,
Routh tables, factorization checks) hold bit for bit. Coefficients and scalar
operands pass through `Fraction(c)`: ints, Fractions and decimal strings are
read exactly, and a float is lifted to its exact binary value. Coefficients
are kept in ascending order of degree and the zero polynomial is the empty
coefficient tuple.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import ZeroPolynomial

Scalar = Union[int, float, Fraction]


class Polynomial:
    """Immutable dense polynomial; ``coeffs[k]`` multiplies s^k.

    Each coefficient is stored as ``Fraction(c)``: ints, Fractions and
    decimal strings exactly, floats as their exact binary value.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        vals = [Fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.coeffs = tuple(vals)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def degree(self) -> int:
        """len(coeffs) - 1; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        zero = Fraction(0)
        out = []
        for i in range(max(len(a), len(b))):
            x = a[i] if i < len(a) else zero
            y = b[i] if i < len(b) else zero
            out.append(x + y)
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            c = Fraction(other)
            return Polynomial([c * x for x in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take a nonnegative integer")
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        zero = Fraction(0)
        dq = self.degree - other.degree
        if dq < 0:
            return Polynomial(), self
        lead = other.coeffs[-1]
        db = other.degree
        q = [zero] * (dq + 1)
        rem = list(self.coeffs)
        for k in range(dq, -1, -1):
            top = rem[db + k]
            if top == 0:
                continue
            c = top / lead
            q[k] = c
            for i, bc in enumerate(other.coeffs[:-1]):
                rem[i + k] -= c * bc
            rem[db + k] = zero
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # ------------------------------------------------------------------
    # evaluation and transforms

    def __call__(self, z):
        """Horner evaluation; the result type follows z (Fraction in, Fraction out)."""
        if not self.coeffs:
            return z * 0
        acc = z * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    def scale(self, gamma) -> "Polynomial":
        """Return p(gamma * s)."""
        g = Fraction(gamma)
        out = []
        gk = Fraction(1)
        for c in self.coeffs:
            out.append(c * gk)
            gk *= g
        return Polynomial(out)

    def monic(self) -> "Polynomial":
        lc = self.leading()
        if lc == 1:
            return self
        return Polynomial([c / lc for c in self.coeffs])

    # ------------------------------------------------------------------
    # text form

    def to_text(self) -> str:
        """Ascending-coefficient display, e.g. '1 + 2*s + s^2'."""
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = _coef_str(c)
            else:
                sk = "s" if k == 1 else f"s^{k}"
                if c == 1:
                    body = sk
                elif c == -1:
                    body = "-" + sk
                else:
                    body = f"{_coef_str(c)}*{sk}"
            parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def _coef_str(c: Fraction) -> str:
    s = str(c)
    return f"({s})" if "/" in s or (s.startswith("-")) else s


# ----------------------------------------------------------------------
# exact gcd (primitive pseudo-remainder sequence over the integers)

def _int_content(cs) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, abs(c))
    return g or 1

def _int_primitive(cs):
    g = _int_content(cs)
    return [c // g for c in cs] if g > 1 else list(cs)

def _to_int_coeffs(p: Polynomial):
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return _int_primitive([int(c * den_lcm) for c in p.coeffs])

def _int_prem(a, b):
    # iterated pseudo-remainder: scale by lead(b) each elimination step so the
    # arithmetic stays in the integers; content is stripped by the caller
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            return r
        k = len(r) - 1 - db
        lr = r[-1]
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[i + k] -= lr * bc
        r[db + k] = 0


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials.

    Implemented as a primitive pseudo-remainder sequence over the integers
    (denominators cleared, content stripped every round), which keeps the
    intermediate coefficient growth tame for the degree ~50 inputs produced
    by the factorization checks.
    """
    if a.is_zero:
        return b.monic() if not b.is_zero else b
    if b.is_zero:
        return a.monic()
    fa, fb = _to_int_coeffs(a), _to_int_coeffs(b)
    while fb:
        r = _int_prem(fa, fb)
        fa, fb = fb, (_int_primitive(r) if r else r)
    return Polynomial(fa).monic()


# ----------------------------------------------------------------------
# stability

def hurwitz_stable(p: Polynomial) -> bool:
    """Strict Hurwitz test (all roots in Re(s) < 0) via an exact Routh table.

    The table is built from the exact coefficients, so the verdict carries
    no rounding. Any zero pivot in the table means the polynomial is not
    strictly Hurwitz and reports False; nonzero constants are vacuously
    stable.
    """
    if p.is_zero:
        raise ZeroPolynomial("stability of the zero polynomial is undefined")
    desc = list(reversed(p.coeffs))
    if len(desc) == 1:
        return True
    if desc[0] < 0:
        desc = [-c for c in desc]
    # necessary condition: every coefficient strictly positive
    if any(c <= 0 for c in desc):
        return False
    prev = desc[0::2]
    cur = desc[1::2]
    while cur:
        pivot = cur[0]
        if pivot <= 0:
            return False
        nxt = []
        for i in range(len(prev) - 1):
            top = prev[i + 1]
            bot = cur[i + 1] if i + 1 < len(cur) else Fraction(0)
            nxt.append(top - prev[0] * bot / pivot)
        prev, cur = cur, nxt
    return True
