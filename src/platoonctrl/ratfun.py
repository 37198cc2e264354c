"""Rational functions in s: the carrier for plants, controllers and
closed-loop maps.

Every value is kept gcd-reduced with a monic denominator over exact
rational coefficients, so equality is literal coefficient equality. Scalar
operands follow the `Polynomial` coefficient rule: they pass through
`Fraction(c)`, so a float enters as its exact binary value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import IllPosed, NonPositiveGamma, PoleAtPoint, ZeroDenominator
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
    lc = den.coeffs[-1]
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

    # ------------------------------------------------------------------

    @property
    def is_proper(self) -> bool:
        """deg(num) <= deg(den): membership in the proper real-rationals."""
        return self.num.degree <= self.den.degree

    @property
    def is_strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree

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
        # reduce by the denominator gcd up front; keeps long exact sums
        # (shared power-form denominators) from ballooning before the
        # constructor's canonicalization
        if self.den.degree > 0 and other.den.degree > 0:
            g = poly_gcd(self.den, other.den)
            if g.degree > 0:
                da = self.den // g
                db = other.den // g
                return RationalFunction(self.num * db + other.num * da, self.den * db)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

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
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # ------------------------------------------------------------------
    # evaluation and series

    def __call__(self, z):
        dv = self.den(z)
        if dv == 0 or (not isinstance(dv, Fraction) and abs(dv) < 1e-300):
            raise PoleAtPoint(f"denominator vanishes at {z!r}")
        return self.num(z) / dv

    def maclaurin(self, count: int):
        """First `count` Taylor coefficients at s = 0."""
        d = self.den.coeffs
        if d[0] == 0:
            raise PoleAtPoint("pole at the origin")
        n = self.num.coeffs
        out = []
        for k in range(count):
            acc = n[k] if k < len(n) else Fraction(0)
            for i in range(1, k + 1):
                di = d[i] if i < len(d) else Fraction(0)
                acc -= di * out[k - i]
            out.append(acc / d[0])
        return out

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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RationalFunction":
        return cls(Polynomial(doc["num"]), Polynomial(doc["den"]))


# ----------------------------------------------------------------------
# module-level constants and free-function operations

s = RationalFunction(Polynomial([0, 1]), Polynomial([1]))
one = RationalFunction(Polynomial([1]), Polynomial([1]))


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

def closed_loop(p: RationalFunction, c: RationalFunction) -> Tuple[RationalFunction, RationalFunction]:
    """(S, T) = (1/(1+pc), pc/(1+pc)) for the unity-feedback loop.

    Both maps are formed from the cleared characteristic polynomial
    d_p*d_c + n_p*n_c and returned canonical; S + T = 1 exactly.
    """
    char = p.den * c.den + p.num * c.num
    if char.is_zero:
        raise IllPosed("1 + p*c is identically zero")
    return RationalFunction(p.den * c.den, char), RationalFunction(p.num * c.num, char)


@dataclass(frozen=True)
class StabilityReport:
    """Gang-of-four verdict for a plant/controller pair.

    gang_of_four = (S, PS, CS, T) = (1/(1+pc), p/(1+pc), c/(1+pc),
    pc/(1+pc)). internally_stable is the conjunction of each_stable.
    Properness is recorded per map but kept out of the verdict: the loop may
    legitimately contain improper PD-type controllers, and only final shipped
    controllers need properness.
    """

    gang_of_four: tuple
    each_stable: tuple
    each_proper: tuple
    internally_stable: bool
    char_poly: Polynomial


def internal_stability(p: RationalFunction, c: RationalFunction) -> StabilityReport:
    """Gang-of-four analysis without cancelling p-c common factors.

    Each of the four maps starts from the shared unreduced characteristic
    polynomial, is then brought to canonical form individually, and its
    reduced denominator is Routh-tested. Skipping the p-c cancellation up
    front is what makes hidden unstable cancellations visible in at least one
    of the four maps.
    """
    char = p.den * c.den + p.num * c.num
    if char.is_zero:
        raise IllPosed("1 + p*c is identically zero")
    nums = (p.den * c.den, p.num * c.den, p.den * c.num, p.num * c.num)
    four = tuple(RationalFunction(n, char) for n in nums)
    each_stable = tuple(f.den.degree == 0 or hurwitz_stable(f.den) for f in four)
    each_proper = tuple(f.is_proper for f in four)
    return StabilityReport(four, each_stable, each_proper, all(each_stable), char)
