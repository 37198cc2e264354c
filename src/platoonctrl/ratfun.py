"""Rational functions in s: the carrier for plants, controllers and
closed-loop maps.

Every value is kept gcd-reduced with a monic denominator. Both polynomials
hold integer numerators over one denominator in lowest terms, so equality
is literal equality of those integers. Scalar operands follow the
`Polynomial` coefficient rule: they pass through `Fraction(c)`, so a float
enters as its exact binary value.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (IllPosed, InvalidRange, NonPositiveGamma, PoleAtPoint,
                     StabilityCheckFailed, ZeroDenominator)
from .poly import Polynomial, hurwitz_stable, poly_gcd

def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float, Fraction)):
        return Polynomial([x])
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def _canonicalize(num: Polynomial, den: Polynomial):
    if den.is_zero:
        raise ZeroDenominator("denominator is the zero polynomial")
    if num.is_zero:
        return Polynomial(), Polynomial([1])
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = num // g
        den = den // g
    lc = den.leading()
    if lc != 1:
        inv = 1 / lc
        num = num * inv
        den = den * inv
    return num, den


class RationalFunction:
    """Immutable reduced ratio num/den of two Polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _canonicalize(_as_poly(num), _as_poly(den))
        self.num = num
        self.den = den

    @staticmethod
    def _coprime(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den stored as given, with no gcd: the caller proves den monic
        and the pair coprime (so den is 1 when num is zero)."""
        f = object.__new__(RationalFunction)
        f.num = num
        f.den = den
        return f

    # ------------------------------------------------------------------

    @property
    def is_proper(self) -> bool:
        """deg(num) <= deg(den): membership in the proper real-rationals."""
        return self.num.degree <= self.den.degree

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, float, Fraction)):
            return RationalFunction(Polynomial([other]), Polynomial([1]))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        # negating num keeps the pair coprime and den monic
        return RationalFunction._coprime(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("rational function powers take an integer")
        if n < 0:
            if self.num.is_zero:
                raise ZeroDenominator("zero to a negative power")
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        # powers of a coprime pair are coprime, and a monic den's power is monic
        return RationalFunction._coprime(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # ------------------------------------------------------------------
    # evaluation

    def __call__(self, z):
        dv = self.den(z)
        if dv == 0 or (not isinstance(dv, Fraction) and abs(dv) < 1e-300):
            raise PoleAtPoint(f"denominator vanishes at {z!r}")
        return self.num(z) / dv

    # ------------------------------------------------------------------
    # text and JSON forms

    def to_text(self) -> str:
        if self.den.degree == 0 and self.den.coeffs[0] == 1:
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    __str__ = to_text

    def __repr__(self):
        return f"RationalFunction({self.to_text()!r})"

    def to_json_dict(self) -> dict:
        """{"num": [...], "den": [...]}, coefficients as rational strings
        ('56', '3/4') that round-trip exactly through from_json_dict."""
        return {"num": [str(c) for c in self.num.coeffs],
                "den": [str(c) for c in self.den.coeffs]}

    @staticmethod
    def from_json_dict(doc: dict) -> "RationalFunction":
        return RationalFunction(Polynomial(doc["num"]), Polynomial(doc["den"]))


class StableLoop(RationalFunction):
    """A T whose loop is proven internally stable, so its denominator is Hurwitz.

    The class is the proof. Only internal_stability and
    synthesis.youla_closed_loop build one, each on its own proof; arithmetic,
    scale_frequency and from_json_dict return a plain RationalFunction.
    """

    __slots__ = ()


def hurwitz_denominator(f: RationalFunction) -> bool:
    """Whether f's denominator is Hurwitz: proven for a StableLoop, one Routh test otherwise."""
    return isinstance(f, StableLoop) or hurwitz_stable(f.den)


# ----------------------------------------------------------------------
# module-level constants and free-function operations

s = RationalFunction(Polynomial([0, 1]), Polynomial([1]))
one = RationalFunction(Polynomial([1]), Polynomial([1]))


def plant(m: int) -> RationalFunction:
    """The m-th order integrator chain 1/s^m."""
    if m < 1:
        raise InvalidRange("m must be >= 1")
    return RationalFunction(Polynomial([1]), Polynomial([0, 1]) ** m)


def scale_frequency(f: RationalFunction, gamma) -> RationalFunction:
    """Return f(gamma * s), re-canonicalized.

    gamma may be an int, Fraction or float; a float gamma is lifted to its
    exact binary value, so the substitution stays exact.
    """
    if gamma <= 0:
        raise NonPositiveGamma("gamma must be positive")
    g = Fraction(gamma)
    return RationalFunction(f.num.scale(g), f.den.scale(g))


# ----------------------------------------------------------------------
# feedback interconnection

def internal_stability(p: RationalFunction, c: RationalFunction) -> StableLoop:
    """T = pc/(1+pc) of an internally stable loop; StabilityCheckFailed otherwise.

    With p = Np/Dp and c = Nc/Dc, each pair coprime (every RationalFunction
    is gcd-reduced), the gang of four (S, PS, CS, T) is (Dp Dc, Np Dc,
    Dp Nc, Np Nc) / char over char = Dp Dc + Np Nc, formed without
    cancelling p-c common factors. Every pole of the four is a root of char.
    Conversely, at a root z of char the four numerators cannot all vanish:
    if Dp(z) = 0 then Np(z) != 0, so Np Dc(z) = 0 needs Dc(z) = 0, whence
    Nc(z) != 0 and Np Nc(z) != 0; Dc(z) = 0 is symmetric, and if neither
    vanishes then Dp Dc(z) != 0. A numerator nonzero at z keeps z a pole
    of its map after reduction, so the loop is internally stable iff char
    is Hurwitz (Doyle, Francis & Tannenbaum, Feedback Control Theory, 1992,
    ch. 3): one Routh test, then one canonicalisation for T, returned as a
    StableLoop, since its denominator divides char. Properness is
    not part of the verdict: the loop may legitimately contain improper
    PD-type controllers.
    """
    char = p.den * c.den + p.num * c.num
    if char.is_zero:
        raise IllPosed("1 + p*c is identically zero")
    if not hurwitz_stable(char):
        raise StabilityCheckFailed(
            f"the characteristic polynomial Dp Dc + Np Nc (degree {char.degree}) "
            "has a root in Re(s) >= 0")
    return StableLoop(p.num * c.num, char)
