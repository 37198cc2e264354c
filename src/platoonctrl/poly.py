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
import operator
from fractions import Fraction
from itertools import accumulate
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


# ----------------------------------------------------------------------
# positive real roots of an integer list: Descartes' rule of signs with
# Taylor shifts by 1 and halving (Collins and Akritas 1976)

def _taylor_shift(cs) -> List[int]:
    """The ascending coefficients of p(x + 1): Horner's synthetic division
    by x - 1, each pass a running sum over the leading coefficients."""
    desc = cs[::-1]
    for m in range(len(desc), 1, -1):
        desc[:m] = accumulate(desc[:m])
    desc.reverse()
    return desc


def _sign_variations(cs) -> int:
    signs = [c > 0 for c in cs if c]
    return sum(map(operator.ne, signs, signs[1:]))


def _root_bound_log2(cs) -> int:
    """k with every positive root of cs below 2^k.

    Kioustelidis (1986): the positive roots lie below twice the largest
    |c_i / c_d|^(1/(d - i)) over the c_i of sign opposite the leading c_d.
    Bit lengths bound each ratio by a power of 2.
    """
    d = len(cs) - 1
    top = abs(cs[-1]).bit_length()
    negative = cs[-1] < 0
    # 1 + ceil((bits(c_i) - bits(c_d) + 1) / (d - i)) per c_i
    return max((1 - ((top - 1 - abs(c).bit_length()) // (d - i))
                for i, c in enumerate(cs[:-1]) if c and (c < 0) != negative), default=0)


def _positive_roots(cs, first: bool = False):
    """(q, roots): intervals that isolate the positive real roots of q.

    cs is an integer list, ascending, with cs[0] != 0. q is cs itself when
    every positive root of cs is simple, else cs / gcd(cs, cs'), which has
    the same roots, each simple. Each root is (lo, hi, sign) in Fractions,
    sorted: an open interval lo < hi holding exactly one root, with sign
    the sign of q just right of lo, or an exact root lo = hi with sign 0.
    With first, the search stops at the first root it finds, or at the
    depth limit below, where it returns a root it has not proven: an empty
    list then proves that cs has no positive root.

    Every node is a polynomial r and a Möbius map x = (a t + b)/(c t + d),
    a, b, c, d >= 0, with r(t) a positive multiple of (c t + d)^n cs(x) for
    t > 0, so the sign variations of r bound the roots of cs between b/d
    and a/c, and 0 or 1 variation counts them exactly (Descartes). A node
    of two or more is split at t = 2^e, e halfway between the exponents of
    the node's root bounds from above and from below (_root_bound_log2 of
    r and of r reversed), so a root near 1e-400 or 1e400 takes tens of
    splits instead of a thousand halvings. The split halves are r(2^e (1 +
    u)), a Taylor shift of the halved r, and (1 + u)^n r(2^e / (1 + u)),
    one of its reverse. The search ends on every polynomial whose positive
    roots are simple. A multiple one shows as a split point that is a
    multiple root, or as a node deeper than cs's largest coefficient has
    bits, plus 64: then, unless cs is squarefree (proven modulo a prime
    first), the search starts again on its squarefree part.
    """
    limit = max(abs(c).bit_length() for c in cs) + 64
    unbounded = Fraction(2) ** _root_bound_log2(cs)
    roots = []
    stack = [(list(cs), 1, 0, 0, 1, 0)]
    while stack:
        r, a, b, c, d, depth = stack.pop()
        v = _sign_variations(r)
        if v == 1 or (v and depth > limit and first):
            lo, hi = Fraction(b, d), (Fraction(a, c) if c else unbounded)
            # r(0) and the leading r have the signs of cs at b/d and at a/c
            roots.append((lo, hi, 1 if r[0] > 0 else -1) if lo < hi
                         else (hi, lo, 1 if r[-1] > 0 else -1))
            if first:
                break
            continue
        if not v:
            continue
        if depth > limit:
            limit = math.inf
            q = _squarefree(cs)
            if len(q) < len(cs):
                return _positive_roots(q)
        n = len(r) - 1
        e = (_root_bound_log2(r) - _root_bound_log2(r[::-1])) >> 1
        if e > 0:
            r = [x << (e * i) for i, x in enumerate(r)]
            a, c = a << e, c << e
        elif e < 0:
            r = [x << (-e * (n - i)) for i, x in enumerate(r)]
            b, d = b << -e, d << -e
        zeros = min((x & -x).bit_length() for x in r if x) - 1
        if zeros:
            r = [x >> zeros for x in r]
        right = _taylor_shift(r)
        left = _taylor_shift(r[::-1])
        if not right[0]:
            # the split point is a root: keep it, and divide it out of both halves
            roots.append((Fraction(a + b, c + d), Fraction(a + b, c + d), 0))
            if first:
                break
            if not right[1]:
                # a multiple root
                return _positive_roots(_squarefree(cs))
            right, left = right[1:], left[1:]
        stack.append((left, b, a + b, d, c + d, depth + 1))
        stack.append((right, a, a + b, c, c + d, depth + 1))
    roots.sort()
    return cs, roots


def _derivative(cs) -> List[int]:
    return [k * c for k, c in enumerate(cs)][1:]


def _squarefree(cs) -> List[int]:
    """cs divided by gcd(cs, cs'): the same roots, each simple."""
    deriv = _derivative(cs)
    if cs[-1] % _P and _coprime_mod_p(cs, deriv):
        return list(cs)
    g = poly_gcd(Polynomial._new(list(cs), 1), Polynomial._new(deriv, 1))
    return _primitive(_pseudo_divmod(cs, g.ints)[0])


def _odd_part(cs) -> List[int]:
    """The product of cs's squarefree factors of odd multiplicity (Yun 1976),
    whose roots are those where cs changes sign."""
    def deriv(p):
        return Polynomial._new(_derivative(list(p.ints)), p.den)

    f = Polynomial._new(list(cs), 1)
    g = poly_gcd(f, deriv(f))
    b, c = f // g, deriv(f) // g
    out, odd = Polynomial([1]), True
    while b.degree > 0:
        d = c - deriv(b)
        a = poly_gcd(b, d)  # the factor of the current multiplicity
        if odd:
            out = out * a
        b, c, odd = b // a, d // a, not odd
    return _primitive(list(out.ints))


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
