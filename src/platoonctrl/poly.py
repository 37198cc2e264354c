"""Polynomials in the indeterminate s with exact rational coefficients.

A polynomial is integer numerators over one positive denominator in lowest
terms (FLINT's `fmpq_poly` layout), ascending in degree, so equality is
literal and all arithmetic, the gcd and the Routh table run on integers:
identities hold bit for bit. `Fraction` is the edge: coefficients and
scalar operands pass through `Fraction(c)` (ints, Fractions and decimal
strings exactly, a float as its exact binary value), and `coeffs`,
`leading` and evaluation hand back reduced Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

from .errors import ZeroPolynomial

Scalar = Union[int, float, Fraction]
_SCALARS = (int, float, Fraction)


class Polynomial:
    """Immutable dense polynomial; ``ints[k] / den`` multiplies s^k.

    Each coefficient given is read as ``Fraction(c)``: ints, Fractions and
    decimal strings exactly, floats as their exact binary value.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # int(): Fraction(np.int64(k)).numerator is still a fixed-width np.int64
        vals = [(int(f.numerator), int(f.denominator)) for f in map(Fraction, coeffs)]
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = math.lcm(*(d for _, d in vals))
        ints = [n * (den // d) for n, d in vals]
        while ints and ints[-1] == 0:
            ints.pop()
        self.ints = tuple(ints)
        self.den = den

    @classmethod
    def _new(cls, ints: List[int], den: int) -> "Polynomial":
        """ints / den (den nonzero) in lowest terms, trailing zeros dropped."""
        while ints and ints[-1] == 0:
            ints.pop()
        g = math.gcd(den, *ints) if ints else abs(den)
        g = -g if den < 0 else g
        p = object.__new__(cls)
        p.ints = tuple(c // g for c in ints) if g != 1 else tuple(ints)
        p.den = den // g
        return p

    # ------------------------------------------------------------------
    # basic queries

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, ascending in degree."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.ints)

    @property
    def degree(self) -> int:
        """The index of the last coefficient; the zero polynomial reports -1."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    # ------------------------------------------------------------------
    # arithmetic

    def _plus(self, other, sign: int):
        # self + sign * other over the lcm of the two denominators
        if isinstance(other, _SCALARS):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        da, db = self.den, other.den
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        a, b = self.ints, other.ints
        out = [c * fa for c in a] + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += c * fb
        return Polynomial._new(out, da * fa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._new([-c for c in self.ints], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = Fraction(other)
            return Polynomial._new([c.numerator * x for x in self.ints],
                                   self.den * c.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._new(_convolve(self.ints, other.ints), self.den * other.den)

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
        if isinstance(other, _SCALARS):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        if self.degree < other.degree:
            return Polynomial(), self
        # lead^k a = q b + r on the numerators, k = deg a - deg b + 1, so
        # a/da = (q db / (lead^k da)) (b/db) + r / (lead^k da)
        q, r = _pseudo_divmod(self.ints, other.ints)
        scale = other.ints[-1] ** (self.degree - other.degree + 1) * self.den
        return (Polynomial._new([c * other.den for c in q], scale),
                Polynomial._new(r, scale))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # ------------------------------------------------------------------
    # evaluation and transforms

    def __call__(self, z):
        """Horner evaluation; the result type follows z (Fraction in, Fraction out)."""
        coeffs = self.coeffs
        if not coeffs:
            return z * 0
        acc = z * 0 + coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * z + c
        return acc

    def scale(self, gamma) -> "Polynomial":
        """Return p(gamma * s)."""
        if self.is_zero:
            return self
        g = Fraction(gamma)
        # with gamma = u/v and d the degree, coefficient k is
        # ints[k] u^k v^(d-k) / (den v^d)
        u, v, d = g.numerator, g.denominator, self.degree
        return Polynomial._new([c * u ** k * v ** (d - k) for k, c in enumerate(self.ints)],
                               self.den * v ** d)

    def monic(self) -> "Polynomial":
        lc = self.leading()
        if lc == 1:
            return self
        # ints[k]/den divided by ints[-1]/den is ints[k]/ints[-1]
        return Polynomial._new(list(self.ints), self.ints[-1])

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
        return self.ints == other.ints and self.den == other.den

    def __hash__(self):
        return hash((self.ints, self.den))


def _coef_str(c: Fraction) -> str:
    s = str(c)
    return f"({s})" if "/" in s or (s.startswith("-")) else s


# ----------------------------------------------------------------------
# numerator lists: the convolution, the pseudo-division that divmod and
# the gcd share, and content stripping

def _convolve(a, b) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pseudo_divmod(a, b) -> Tuple[List[int], List[int]]:
    """(q, r) with lead(b)^k a = q b + r and deg r < deg b, k = len(a) - len(b) + 1.

    Every one of the k elimination steps scales by lead(b), whether or not
    the coefficient it eliminates is already zero, so k is fixed by the
    degrees. r comes back without trailing zeros.
    """
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = []
    for k in range(len(a) - 1 - db, -1, -1):
        t = r.pop()
        if lb != 1:
            r = [lb * c for c in r]
            q = [lb * c for c in q]
        q.append(t)
        if t:
            for i in range(db):
                r[i + k] -= t * b[i]
    q.reverse()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _primitive(cs) -> List[int]:
    """cs divided by the gcd of its entries (cs itself when that is 0 or 1)."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


_P = (1 << 61) - 1  # a Mersenne prime: residues stay one machine word wide


def _coprime_mod_p(a, b) -> bool:
    """True when Euclid on the numerator lists modulo _P ends in a nonzero
    constant, which proves a and b coprime over Q; False proves nothing.

    Brown (1971): if _P does not divide lead(a), any common factor g of a
    and b (primitive, so lead(g) divides lead(a) by Gauss's lemma) keeps
    its degree modulo _P and divides both images, so deg gcd(a mod _P,
    b mod _P) >= deg g. The caller checks lead(a) first.
    """
    p = _P
    fa = [c % p for c in a]
    fb = [c % p for c in b]
    while fb and fb[-1] == 0:
        fb.pop()
    while len(fb) > 1:
        # fa := fa mod fb, eliminating from the top with lead(fb)^-1
        inv = pow(fb[-1], -1, p)
        db = len(fb) - 1
        for k in range(len(fa) - 1 - db, -1, -1):
            t = fa.pop() * inv % p
            if t:
                for i in range(db):
                    fa[k + i] = (fa[k + i] - t * fb[i]) % p
        while fa and fa[-1] == 0:
            fa.pop()
        fa, fb = fb, fa
    # fb is a nonzero constant (coprime) or empty (gcd fa, of degree >= 1)
    return bool(fb)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials; the gcd of two zeros is zero.

    A nonzero constant on either side gives 1 at once. Otherwise Euclid
    modulo a prime (`_coprime_mod_p`) tries to prove the pair coprime, and
    only a pair it cannot prove runs a primitive pseudo-remainder sequence
    on the numerators (content stripped every round), which keeps the
    intermediate coefficient growth tame; the denominators do not change
    the gcd.
    """
    if len(a.ints) == 1 or len(b.ints) == 1:
        return Polynomial([1])
    if a.ints and a.ints[-1] % _P and _coprime_mod_p(a.ints, b.ints):
        return Polynomial([1])
    fa, fb = _primitive(a.ints), _primitive(b.ints)
    while fb:
        fa, fb = fb, _primitive(_pseudo_divmod(fa, fb)[1])
    return Polynomial._new(fa, fa[-1]) if fa else Polynomial()


# ----------------------------------------------------------------------
# stability

def hurwitz_stable(p: Polynomial) -> bool:
    """Strict Hurwitz test (all roots in Re(s) < 0) via an exact Routh table.

    The table is fraction-free: each new row is multiplied by its positive
    pivot and has its content stripped, which scales it by a positive
    number and so leaves every sign, and the verdict, as in the rational
    table. Any zero pivot in the table means the polynomial is not strictly
    Hurwitz and reports False; nonzero constants are vacuously stable.
    """
    if p.is_zero:
        raise ZeroPolynomial("stability of the zero polynomial is undefined")
    desc = p.ints[::-1]
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
        nxt = [pivot * prev[i + 1] - prev[0] * (cur[i + 1] if i + 1 < len(cur) else 0)
               for i in range(len(prev) - 1)]
        prev, cur = cur, _primitive(nxt)
    return True
