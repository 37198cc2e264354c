"""Log-uniform frequency grids, and the H-infinity norm enclosed exactly with no grid.

LogGrid computes log-uniform samples in libm, one index at a time: the
certificates in `synthesis` and pd-random's bracket read a few, `bode` each
once. The exact layer writes |f(j omega)|^2 = A(x)/B(x) over the integers,
x = omega^2, and reads every peak and crossing off root counts and signs
of integer polynomials.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidRange, StabilityCheckFailed
from .poly import _convolve, _derivative, _positive_roots, _root_bound_log2, _yun
from .ratfun import RationalFunction, hurwitz_denominator


def grid_samples(omega_min: float, omega_max: float, points_per_decade: int) -> int:
    """The number of samples LogGrid(omega_min, omega_max, points_per_decade) holds.

    A count past double range, which no grid could hold, is InvalidRange.
    """
    # a difference of logs: omega_max / omega_min can overflow
    decades = math.log10(omega_max) - math.log10(omega_min)
    try:
        return max(2, round(decades * points_per_decade) + 1)
    except OverflowError:  # the int points_per_decade, or the product, past double range
        raise InvalidRange("the grid's sample count must lie in double range") from None


def _exp10(y: float) -> float:
    # 10.0 ** y, inf past double range as np.power gives it
    try:
        return 10.0 ** y
    except OverflowError:
        return math.inf


class LogGrid:
    """Log-uniform samples of positive frequencies (rad/s), computed in libm one index at a time.

    The count N is `grid_samples`. With
    start = log10(omega_min), stop = log10(omega_max) and
    step = (stop - start) / (N - 1), sample k is libm's
    10.0 ** (k * step + start), inf past double range, and samples 0 and
    N - 1 are omega_min and omega_max exactly. That is np.logspace's
    recurrence, but numpy's SIMD power need not round as libm's pow does,
    so each sample lies within 1 ulp of np.logspace's, not always on it.
    np.linspace takes (k / (N - 1)) * (stop - start) + start instead where
    step is 0, which needs stop == start: a nonzero difference of logs exceeds
    1e-17, so step underflows only past 1e290 samples, and `grid_samples`
    gives the two endpoints alone when the logs are equal. Building one
    loads no numpy and computes no sample; each is computed when read.
    """

    __slots__ = ("omega_min", "omega_max", "points_per_decade", "_div", "_start", "_step")

    def __init__(self, omega_min: float, omega_max: float, points_per_decade: int = 200):
        if not (0 < omega_min < omega_max < math.inf):
            raise InvalidRange("need 0 < omega_min < omega_max < inf")
        if points_per_decade < 1:
            raise InvalidRange("points_per_decade must be >= 1")
        self.omega_min = float(omega_min)
        self.omega_max = float(omega_max)
        self.points_per_decade = int(points_per_decade)
        self._div = grid_samples(omega_min, omega_max, points_per_decade) - 1
        self._start = math.log10(omega_min)
        self._step = (math.log10(omega_max) - self._start) / self._div

    def __len__(self) -> int:
        return self._div + 1

    def __getitem__(self, k: int) -> float:
        if 0 < k < self._div:
            return _exp10(k * self._step + self._start)
        if k == 0:
            return self.omega_min
        if k == self._div:
            return self.omega_max
        raise IndexError("grid sample index out of range")

    def __iter__(self):
        yield self.omega_min
        start, step = self._start, self._step
        for k in range(1, self._div):
            yield _exp10(k * step + start)
        yield self.omega_max


@functools.cache
def default_grid() -> LogGrid:
    """The documented default sweep, one shared LogGrid: 1e-4..1e4 rad/s at 200 points/decade."""
    return LogGrid(1e-4, 1e4, 200)


# ----------------------------------------------------------------------
# H-infinity norm

class HinfResult(NamedTuple):
    """The peak gain, enclosed: lower <= sup |f(j omega)| <= norm.

    norm is proven, rounded up, and norm / lower - 1 <= 2^-40; argmax_omega
    is where lower was read, 0.0 or inf when that is an end of the axis.
    """

    norm: float
    argmax_omega: float
    lower: float


def _abs_squared(ints):
    # |N(j w)|^2 = E(x)^2 + x O(x)^2 in x = w^2, for N(s) = E(-s^2) + s O(-s^2)
    even = [c if k % 2 == 0 else -c for k, c in enumerate(ints[0::2])]
    odd = [c if k % 2 == 0 else -c for k, c in enumerate(ints[1::2])]
    return _plus(_convolve(even, even), [0] + _convolve(odd, odd), 1) if odd else \
        _convolve(even, even)


def _plus(a, b, sign):
    # a + sign * b, without trailing zeros
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return out


def _x_divided_out(cs):
    """cs divided by its power of x; [] stays []."""
    return cs[next(i for i, c in enumerate(cs) if c):] if cs else cs


def _gain_squared(f: RationalFunction):
    """(A, B), integer lists ascending in x = omega^2, with |f(j omega)|^2 = A(x)/B(x)."""
    return ([c * f.den.den ** 2 for c in _abs_squared(f.num.ints)],
            [c * f.num.den ** 2 for c in _abs_squared(f.den.ints)])


def _at(cs, x: Fraction) -> int:
    """den(x)^deg * cs(x): the sign of cs at x, as an integer."""
    n, d = x.numerator, x.denominator
    acc = cs[-1]
    if d & (d - 1):
        power = 1
        for c in reversed(cs[:-1]):
            power *= d
            acc = acc * n + c * power
        return acc
    # a dyadic x, the bisection's: the powers of d are shifts
    k = d.bit_length() - 1
    for j, c in enumerate(reversed(cs[:-1]), 1):
        acc = acc * n + (c << (k * j))
    return acc


def _ratio_at(A, B, x: Fraction):
    # A(x)/B(x) as an integer pair (num, den), den > 0 since B > 0 on x >= 0
    shift = len(B) - len(A)
    d = x.denominator
    if shift >= 0:
        return _at(A, x) * d ** shift, _at(B, x)
    return _at(A, x), _at(B, x) * d ** -shift


def _above(v, w) -> bool:
    return v[0] * w[1] > w[0] * v[1]


def _midpoint(lo: Fraction, hi: Fraction, floor_log2: int) -> Fraction:
    """A short dyadic strictly inside (lo, hi): halfway in log2 when hi > 2 lo,
    with floor_log2 standing in for log2 lo = -inf, else halfway."""
    if hi > 2 * lo:
        top = hi.numerator.bit_length() - hi.denominator.bit_length()
        bottom = lo.numerator.bit_length() - lo.denominator.bit_length() if lo else floor_log2
        mid = Fraction(2) ** ((top + bottom) >> 1)
        if lo < mid < hi:
            return mid
    # 2^-k <= (hi - lo)/4, so the half of lo + hi rounded down to 2^-k stays inside
    width, total = hi - lo, lo + hi
    k = max(1, width.denominator.bit_length() - width.numerator.bit_length() + 3)
    return Fraction((total.numerator << (k - 1)) // total.denominator, 1 << k)


class _Peak:
    """A local maximum of A/B: a root of the stationary polynomial q isolated in
    (lo, hi), q having the sign `rising` just right of lo, refined by bisection.
    value is A/B at x, the best point seen."""

    def __init__(self, q, lo, hi, rising, A, B, floor_log2):
        self.q, self.lo, self.hi, self.rising = q, lo, hi, rising
        self.A, self.B, self.floor_log2 = A, B, floor_log2
        self.ends = _ratio_at(A, B, lo), _ratio_at(A, B, hi)
        self.x, self.value = (hi, self.ends[1]) if _above(self.ends[1], self.ends[0]) \
            else (lo, self.ends[0])

    def refine(self, bits: int) -> None:
        """Bisect until hi / lo - 1 <= 2^-(bits/2) and A/B at both ends lies
        within 2^-bits of A/B at the last middle."""
        while self.lo < self.hi:
            mid = _midpoint(self.lo, self.hi, self.floor_log2)
            v = _ratio_at(self.A, self.B, mid)
            if _above(v, self.value):
                self.x, self.value = mid, v
            s = _at(self.q, mid)
            if not s:
                self.lo = self.hi = mid
                return
            if (s > 0) == (self.rising > 0):
                self.lo, self.ends = mid, (v, self.ends[1])
            else:
                self.hi, self.ends = mid, (self.ends[0], v)
            low = self.ends[1] if _above(self.ends[0], self.ends[1]) else self.ends[0]
            if ((self.hi - self.lo) * 2 ** (bits >> 1) <= self.lo and v[0]
                    and (v[0] * low[1] - low[0] * v[1]) << bits <= v[0] * low[1]):
                return


def _float_up(n: int, d: int) -> float:
    """The least float >= n/d (inf past double range)."""
    try:
        f = n / d  # correctly rounded
    except OverflowError:
        return math.inf
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if fn * d < n * fd else f


def _float_down(n: int, d: int) -> float:
    """The greatest float <= n/d (the largest finite float past double range)."""
    try:
        f = n / d
    except OverflowError:
        return sys.float_info.max
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, 0.0) if fn * d > n * fd else f


def _sqrt_floor(n: int, d: int):
    """(r, s) with r / 2^s <= sqrt(n/d) < (r + 1) / 2^s and r of at least 64 bits."""
    s = max(0, 66 - ((n.bit_length() - d.bit_length()) >> 1))
    return math.isqrt((n << (2 * s)) // d), s


def _level(A, B, U: float) -> int:
    """The sign of G = U^2 B - A on x > 0, U read exactly, as far as one count shows it.

    G is divided by its power of x first. 1: G is zero, or it has no
    positive root (poly._positive_roots(G, first=True) isolates none) and
    so is positive, that is A/B <= U^2 on x >= 0. -1: G is negative near 0
    or near infinity, where its lowest or leading coefficient is, or at an
    end of the first interval that count isolates, the other end being
    positive: A/B > U^2 somewhere. 0: the count found a root whose
    interval ends do not have opposite signs (one at a split point, or past
    its depth limit), which proves no sign.
    """
    un, ud = U.as_integer_ratio()
    G = _x_divided_out(_plus([c * un * un for c in B], [c * ud * ud for c in A], -1))
    if not G:
        return 1
    if G[0] < 0 or G[-1] < 0:
        return -1
    roots = _positive_roots(G, first=True)[1]
    if not roots:
        return 1
    ends = _at(G, roots[0][0]), _at(G, roots[0][1])
    return -1 if min(ends) < 0 < max(ends) else 0


def _proven_norm(A, B, value, margin: int):
    """The least float U >= sqrt(value) (1 + 2^-margin) if A/B <= U^2 on
    x >= 0 is proven (_level), else None.

    With margin 0, U can touch the peak at x = 0 or in the limit, as
    |T(0)| = 1 does.
    """
    r, s = _sqrt_floor(*value)
    # sqrt(value) <= top / 2^s, with equality when the root is exact
    top = r if r * r * value[1] == value[0] << (2 * s) else r + 1
    U = _float_up(top * ((1 << margin) + 1), 1 << (s + margin)) if margin else \
        _float_up(top, 1 << s)
    return U if U == math.inf or _level(A, B, U) > 0 else None


def hinf_norm(f: RationalFunction) -> HinfResult:
    """Peak magnitude over the imaginary axis, enclosed in exact integer arithmetic.

    The checked wrapper of _enclose on |f(j omega)|^2 = A(x)/B(x)
    (_gain_squared). Unstable or improper input has no finite supremum and
    raises StabilityCheckFailed; a StableLoop's denominator is proven
    Hurwitz, so only a plain RationalFunction's is Routh-tested.
    """
    if not (f.is_proper and hurwitz_denominator(f)):
        raise StabilityCheckFailed("closed loop has no finite peak")
    return _enclose(*_gain_squared(f))


def _enclose(A, B) -> HinfResult:
    """The peak of sqrt(A/B) on x = omega^2 >= 0, A and B integer lists
    ascending in x with B > 0 on x >= 0; A = [] gives (0.0, 0.0, 0.0).

    The peak is A/B at x = 0, its limit at infinity, or its value at a
    positive root of A'B - AB' where that polynomial changes sign from + to
    - (a local maximum). Those roots are isolated (poly._positive_roots),
    each local maximum is bisected until A/B varies by 2^-16 across it and
    the best one by 2^-64, and A/B at the best point seen, evaluated
    exactly, is lower^2. norm is the least float U >= lower that _level
    proves an upper bound. When it does not, U is raised to
    lower (1 + 2^-56), then by a factor 2^4 more each time down to 2^-42,
    and every maximum is refined twice as far. argmax_omega is the square
    root of the exact x, through isqrt, so it cannot underflow. A and B
    need not be coprime: a common factor positive on x >= 0 moves no
    local maximum of A/B.
    """
    if not A:
        return HinfResult(0.0, 0.0, 0.0)
    ends = [(Fraction(0), (A[0], B[0]))]
    if len(A) == len(B):
        ends.append((None, (A[-1], B[-1])))
    P = _x_divided_out(_plus(_convolve(_derivative(A), B), _convolve(A, _derivative(B)), -1))
    peaks = []
    if P:
        q, roots = _positive_roots(P)
        floor_log2 = -_root_bound_log2(q[::-1]) - 1
        # a squarefree part in place of P has its own signs: keep every root then
        peaks = [_Peak(q, lo, hi, rising, A, B, floor_log2) for lo, hi, rising in roots
                 if rising > 0 or lo == hi or q is not P]
    for peak in peaks:
        peak.refine(16)
    if peaks:
        max(peaks, key=lambda p: Fraction(*p.value)).refine(64)
    bits, margin = 64, 0
    while True:
        x, value = ends[0]
        for y, v in ends[1:] + [(p.x, p.value) for p in peaks]:
            if _above(v, value):
                x, value = y, v
        norm = _proven_norm(A, B, value, margin)
        if norm is not None:
            break
        bits, margin = 2 * bits, max(42, margin - 4) if margin else 56
        for peak in peaks:
            peak.refine(bits)
    if x is None:
        omega = math.inf
    else:
        r, s = _sqrt_floor(x.numerator, x.denominator)
        omega = r / (1 << s)
    r, s = _sqrt_floor(*value)
    return HinfResult(norm, omega, _float_down(r, 1 << s))


def exceeds_unity(f: RationalFunction) -> bool:
    """Whether |f(j omega)| > 1 at some omega >= 0 or in the limit, decided exactly.

    That is whether A - B (_gain_squared) is positive somewhere on x > 0,
    which _level(A, B, 1.0) answers unless its count meets a root it cannot
    classify. Then A - B, divided by its power of x, is negative at both
    ends, and positive somewhere exactly when it has a positive root of odd
    multiplicity: its squarefree factors of odd multiplicity (poly._yun)
    are searched.
    """
    A, B = _gain_squared(f)
    level = _level(A, B, 1.0)
    if level:
        return level < 0
    Q = _x_divided_out(_plus(A, B, -1))
    return any(_positive_roots(g)[1] for g, k in _yun(Q) if k % 2)
