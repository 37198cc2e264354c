"""Predecessor-following analysis: cascade amplification and its obstruction.

The spacing error at vehicle n is the head disturbance filtered through the
product of the per-stage complementary sensitivities, so everything here
works with sums of log-magnitudes (safe for long cascades). The integral
obstruction says that for a double integrator or worse, any internally
stabilising loop has ln|T| integrating to a nonnegative value against
1/omega^2, so |T| > 1 somewhere and a homogeneous cascade grows
geometrically. That integral is computed from its closed form in T'(0) and
the right-half-plane zeros of T, found by Aberth iteration on the exact
squarefree factors of T's numerator, not by quadrature. The randomized PD
experiment probes how much plain parameter scatter already mitigates that.

The experiment's gains come from Philox4x64-10 in Python integers, bit for
bit numpy's stream, and each stage's ln|T_k|^2 is read in libm off its
closed form at the grid samples where the cascade's maximum can lie.
"""

from __future__ import annotations

import math
import statistics
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul, rshift, truediv
from typing import Tuple

from .errors import DivergentAtOrigin, InvalidRange, StabilityCheckFailed
from .freq import LogGrid, default_grid, exceeds_unity, hinf_norm
from .poly import _aberth, _yun, hurwitz_stable
from .ratfun import RationalFunction, hurwitz_denominator, internal_stability, plant

_SQRT2 = math.sqrt(2.0)
_LN_MAX = math.log(sys.float_info.max)  # exp past it is inf


# ----------------------------------------------------------------------
# the integral obstruction

def middleton_integral(T: RationalFunction) -> float:
    """The integral over (0, inf) of ln|T(j omega)| / omega^2, in closed form.

    Requires T nonzero, strictly proper and stable (StabilityCheckFailed
    otherwise; a StableLoop is proven stable, a plain RationalFunction's
    denominator is Routh-tested), and T(0) = 1 (DivergentAtOrigin otherwise:
    the 1/omega^2 weight makes the integral diverge at the origin). Then
    (Middleton 1991; Seiler, Pant and Hedrick 2004)

        integral = (pi/2) T'(0) + pi * sum of Re(1/z) over the zeros z of T
                   with Re z > 0.

    Proof sketch: take one Blaschke factor (z - s)/(conj(z) + s) * conj(z)/z
    per right-half-plane zero z of T, and write T = B T_mp with B their
    product. Then |B(j omega)| = 1 and B(0) = T_mp(0) = 1, and T_mp has no
    zero or pole in Re s > 0, so ln T_mp(s)/s^2 is analytic there. Integrate
    it up the imaginary axis, indented at 0 by a small right half-circle,
    and back round a large one. The large arc vanishes, since ln|T_mp| grows
    only like ln|s|; on the axis the odd phase cancels and the even part
    ln|T(j omega)| remains; the indentation passes the simple pole at 0, of
    residue T_mp'(0). So the integral is (pi/2) T_mp'(0), and
    differentiating ln T = ln B + ln T_mp at 0 gives
    T_mp'(0) = T'(0) + 2 sum Re(1/z). A zero on the axis adds Re(1/z) = 0.

    T'(0) = (n1 - d1)/d0 is exact, since n0 = d0. The zero sum is empty if T's
    numerator passes the exact Routh test; else each exact squarefree factor f
    of multiplicity k adds pi k max(Re w, 0) over the roots w = 1/z of f
    reversed (Aberth iteration). That term is continuous in w, so a zero near
    the axis on the wrong side moves the sum by next to nothing. Past double
    range the value is +-inf, or nan past a zero's.
    """
    if T.num.is_zero or T.num.degree >= T.den.degree:
        raise StabilityCheckFailed("T must be nonzero and strictly proper")
    if not hurwitz_denominator(T):
        raise StabilityCheckFailed("T must be stable")
    t0 = T(Fraction(0))
    if t0 != 1:
        raise DivergentAtOrigin(f"T(0) = {t0} != 1")
    n, d = T.num.coeffs, T.den.coeffs
    slope = ((n[1] if len(n) > 1 else 0) - d[1]) / d[0]
    try:
        value = math.pi / 2 * float(slope)
    except OverflowError:
        value = math.inf if slope > 0 else -math.inf
    if not hurwitz_stable(T.num):
        value += math.pi * sum(k * sum(max(w.real, 0.0) for w in _aberth(f[::-1]))
                               for f, k in _yun(T.num.ints))
    return value


# ----------------------------------------------------------------------
# homogeneous growth

@dataclass(frozen=True)
class GrowthTable:
    """n-th powers of the closed-loop peak: the homogeneous cascade bound.

    T is the closed loop the peak was read off.
    """

    omega0: float
    hinf: float
    rows: Tuple[Tuple[int, float], ...]
    growth_flagged: bool
    T: RationalFunction

    def to_csv(self) -> str:
        lines = ["n,gain"]
        for n, gain in self.rows:
            lines.append(f"{n},{gain!r}")
        return "\n".join(lines) + "\n"


def homogeneous_growth(c: RationalFunction, m: int, n_max: int) -> GrowthTable:
    """Peak frequency omega0 and the gains ||T||^n for n = 1..n_max.

    A cascade of n identical stages admits |y_n/d_1| = |T(j omega0)|^n at
    the peak frequency, so the table is the exponential envelope, each row
    the float power of hinf_norm's proven bound. The growth flag fires
    exactly when |T| > 1 somewhere: the enclosure decides when it lies off
    1, and freq.exceeds_unity, the sign of B - A, when it holds 1. An
    unstabilising c raises StabilityCheckFailed from internal_stability.
    """
    if n_max < 1:
        raise InvalidRange("n_max must be >= 1")
    T = internal_stability(plant(m), c)
    res = hinf_norm(T)
    rows = tuple((n, _power(res.norm, n)) for n in range(1, n_max + 1))
    flagged = res.lower > 1.0 or (res.norm > 1.0 and exceeds_unity(T))
    return GrowthTable(res.argmax_omega, res.norm, rows, flagged, T)


def _power(x: float, n: int) -> float:
    # the float power, np.float64's bit for bit; past double range it is inf
    try:
        return x ** n
    except OverflowError:
        return math.inf


# ----------------------------------------------------------------------
# randomized PD mistuning

_SCHEME = "philox4x64:key=seed;counter=[trial,vehicle,0,0];one-uniform-per-draw"
# trials times samples in one flat list per stage: a block of trials fills it
_BLOCK_SAMPLES = 2 ** 14
# gains drawn per pass of the generator, n vehicles times a chunk of trials;
# each packed word of the pass takes 16 bytes a gain
_DRAW_GAINS = 2 ** 18
_M64 = 2 ** 64 - 1
# Philox4x64's round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _lanes(words) -> int:
    """One int holding words[i] in bits [128 i, 128 i + 64), zeros between."""
    z = array("Q", bytes(16 * len(words)))
    z[0::2] = words
    return int.from_bytes(z, "little")


def _philox_words(key: int, t0: int, count: int, vehicles) -> array:
    """numpy's Philox4x64-10 first word for each vehicle v, trial t0 .. t0 + count - 1 within it.

    A generator steps its 256-bit counter before each block, so its first
    word is word 0 of the block at t + 1 + 2^64 v. Each 128-bit lane of one
    Python int holds one counter's word and fits a product of two, so a
    round is a few whole-int multiplies, masks and xors.
    """
    lanes = count * len(vehicles)
    one = _lanes(array("Q", [1]) * lanes)
    low = _M64 * one
    # t + 1 and v fit a lane whole, so each carry is the bit past a word
    x0 = _lanes(array("Q", range(count)) * len(vehicles)) + (t0 + 1) * one
    x1 = _lanes(array("Q", [v for v in vehicles for _ in range(count)])) + (x0 >> 64 & low)
    x0, x1, x2, x3 = x0 & low, x1 & low, x1 >> 64 & low, 0
    k0, k1 = key & _M64, key >> 64
    for _ in range(9):
        p0, p1 = _PHILOX_M[0] * x0, _PHILOX_M[1] * x2
        x0, x1, x2, x3 = (p1 >> 64 & low) ^ x1 ^ k0 * one, p1 & low, \
            (p0 >> 64 & low) ^ x3 ^ k1 * one, p0 & low
        k0, k1 = (k0 + _PHILOX_W[0]) & _M64, (k1 + _PHILOX_W[1]) & _M64
    # the tenth round's word 0 needs only its second product
    x0 = (_PHILOX_M[1] * x2 >> 64 & low) ^ x1 ^ k0 * one
    return array("Q", x0.to_bytes(16 * lanes, "little"))[0::2]


class _GainDrawer:
    """(trial, vehicle) -> the exact derivative gain, from one keyed generator.

    Philox is counter-based (Salmon et al., SC 2011): the gain of (trial,
    vehicle) is the first uniform of numpy's Philox with key seed and
    counter [trial, vehicle, 0, 0], its word read off `_philox_words`. That
    is u = m / 2^53, m the word's top 53 bits, so the gain k_min +
    (k_max - k_min) u is (a + b m)/c, with c the power of 2 that makes
    k_min c = a and (k_max - k_min) c / 2^53 = b integers.
    """

    def __init__(self, seed: int, k_min: float, k_max: float):
        self._key = seed
        lo = Fraction(k_min)
        width = Fraction(k_max) - lo
        self._c = math.lcm(lo.denominator, width.denominator << 53)
        self._a = lo.numerator * (self._c // lo.denominator)
        self._b = width.numerator * (self._c // (width.denominator << 53))

    def _numerators(self, t0: int, count: int, vehicles):
        # a + b m per draw, in _philox_words' order
        words = _philox_words(self._key, t0, count, vehicles)
        return map(add, repeat(self._a), map(mul, repeat(self._b), map(rshift, words, repeat(11))))

    def gains(self, t0: int, count: int, vehicles) -> list:
        """Each gain of trials t0 .. t0 + count - 1 rounded once to a float, vehicle by vehicle."""
        return list(map(truediv, self._numerators(t0, count, vehicles), repeat(self._c)))

    def pairs(self, t0: int, count: int, vehicle: int):
        """The reduced (numerator, denominator) of the gains of trials t0 .. t0 + count - 1."""
        c = self._c
        return [(x // g, c // g) for x in self._numerators(t0, count, (vehicle,))
                for g in (math.gcd(x, c),)]

    def __call__(self, trial: int, vehicle: int) -> Fraction:
        return Fraction(*self.pairs(trial, 1, vehicle)[0])


def pd_gain(seed: int, trial: int, vehicle: int, k_min: float, k_max: float) -> Fraction:
    """The derivative gain for (trial, vehicle), exact and order-independent.

    One uniform draw from a counter-based generator keyed by the seed with
    the (1-based) trial and vehicle indices in the counter block, so any
    draw can be reproduced in isolation. The float draw is then frozen as an
    exact rational so downstream algebra stays exact.
    """
    return _GainDrawer(seed, k_min, k_max)(trial, vehicle)


@dataclass(frozen=True)
class MistuneReport:
    """Per-trial cascade peaks for randomized PD stages c_k = 1 + k_k s."""

    n: int
    trials: int
    seed: int
    k_min: float
    k_max: float
    scheme: str
    peaks: Tuple[float, ...]
    argmax_omegas: Tuple[float, ...]
    median_peak: float
    max_peak: float

    def to_csv(self) -> str:
        lines = ["trial,peak,argmax_omega"]
        for i, (pk, am) in enumerate(zip(self.peaks, self.argmax_omegas), start=1):
            lines.append(f"{i},{pk!r},{am!r}")
        return "\n".join(lines) + "\n"


def _rising_edge(k_max: float) -> float:
    """A float at or below w*(k_max) = sqrt(x*), x* = 2/(1 + sqrt(1 + 2 k_max^2)).

    Each of the five roundings adds at most an ulp or so, and the last factor
    lowers the result past all of them. hypot avoids squaring k_max, which
    overflows from about 1e154; past about 1e308 sqrt 2 k_max itself is inf,
    and the edge is 0.
    """
    return math.sqrt(2.0 / (1.0 + math.hypot(1.0, _SQRT2 * k_max))) * (1.0 - 2.0 ** -49)


def _falling_edge(k_min: float) -> float:
    """A float at or above w*(k_min), as _rising_edge with the last factor raising it;
    past about 1.27e308, where sqrt 2 k_min is inf, from x* < sqrt 2 / k_min."""
    h = math.hypot(1.0, _SQRT2 * k_min)
    return math.sqrt(2.0 / (1.0 + h) if h < math.inf else _SQRT2 / k_min) * (1.0 + 2.0 ** -49)


def pd_window(k_min: float, k_max: float, grid: LogGrid) -> range:
    """The grid indices that can hold the maximum of a PD cascade with gains in [k_min, k_max].

    From the last sample at or below w*(k_max), or the first, to the first at
    or above w*(k_min), or the last, stopping before sqrt 2 unless only the
    first is left; pd_mistune_experiment's docstring proves it.
    """
    lo = max(bisect_right(grid, _rising_edge(k_max)) - 1, 0)
    hi = min(bisect_left(grid, _falling_edge(k_min)), bisect_left(grid, _SQRT2) - 1, len(grid) - 1)
    return range(lo, max(hi, lo) + 1)


def _softplus(y: float) -> float:
    # ln(1 + e^y), overflowing nowhere
    return max(y, 0.0) + math.log1p(math.exp(-abs(y)))


def _at_unit(ks) -> list:
    # |T_k(j)|^2 = 1 + 1/k^2, k^2 rounded as elsewhere; past 1e300 that is -ln k^2
    return [math.log1p(1.0 / (k * k)) if k > 1e-150 else -2.0 * math.log(k) for k in ks]


def _past_sqrt2(w: float):
    # there |T_k|^2 = 1/(1 + s), s = x (x - 2)/(1 + k^2 x), read in logs as w^2 may overflow
    lx = 2.0 * math.log(w)
    ls = 2.0 * lx + math.log1p(-2.0 / (w * w))
    return lambda ks: [-_softplus(ls - _softplus(2.0 * math.log(k) + lx)) for k in ks]


def _trial_peaks(ks, count: int, samples):
    """(peaks, argmax omegas) over the samples per trial; ks holds count float gains a stage.

    With x = w^2, ln|T_k(j w)|^2 = log1p(C / (A + k^2)) for C = 2 - x and
    A = (1 - x)^2 / x, 1 - x taken as (1 - w)(1 + w): below sqrt 2 no term
    is negative, so nothing cancels, and k^2 is inf or below 1e-307 only
    where its share of the log is below 1e-308 (A = inf where x underflows).
    w = 1, where A = 0, and w past sqrt 2 are columns summed apart. Stages
    are summed in stage order, and the first maximum is exp'd, past double
    range to inf.
    """
    S = len(samples)
    a, c, columns = [], [], []
    for j, w in enumerate(samples):
        x = w * w
        if w == 1.0 or w >= _SQRT2:
            columns.append((j, _at_unit if w == 1.0 else _past_sqrt2(w)))
            x = 0.0
        a.append(((1.0 - w) * (1.0 + w)) ** 2 / x if x else math.inf)
        c.append(2.0 - x)
    k2s = list(map(mul, ks, ks))
    block = max(1, _BLOCK_SAMPLES // S)
    peaks, argmaxes = [], []
    for b0 in range(0, count, block):
        size = min(block, count - b0)
        # sample j of trial b0 + i at j size + i
        A, C = (list(chain.from_iterable(map(repeat, col, repeat(size)))) for col in (a, c))
        total, sums = [0.0] * (S * size), [[0.0] * size] * len(columns)
        for s0 in range(b0, len(ks), count):
            total = list(map(add, total, map(math.log1p, map(
                truediv, C, map(add, A, k2s[s0:s0 + size] * S)))))
            sums = [list(map(add, col, f(ks[s0:s0 + size]))) for col, (_, f) in zip(sums, columns)]
        for (j, _), col in zip(columns, sums):
            total[j * size:(j + 1) * size] = col
        rows = list(zip(*(total[j * size:(j + 1) * size] for j in range(S))))
        tops = list(map(max, rows))
        peaks += [math.exp(h) if h <= _LN_MAX else math.inf for h in map(mul, tops, repeat(0.5))]
        argmaxes += map(samples.__getitem__, map(tuple.index, rows, tops))
    return peaks, argmaxes


def pd_cascade_peak(ks, grid: LogGrid) -> Tuple[float, float]:
    """(peak, argmax omega) over the grid of the cascade of PD stages with gains ks.

    Stage k is T_k = (1 + k s)/(s^2 + k s + 1); ks holds one or more positive
    ints or Fractions, each rounded once to a float and evaluated on
    pd_window's samples as pd_mistune_experiment evaluates a trial.
    """
    fs = [k.numerator / k.denominator for k in ks]
    peaks, argmaxes = _trial_peaks(fs, 1, [grid[i] for i in pd_window(min(fs), max(fs), grid)])
    return peaks[0], argmaxes[0]


def pd_mistune_experiment(n: int, k_min: float, k_max: float, trials: int,
                          seed: int, grid: LogGrid | None = None) -> MistuneReport:
    """Cascade peaks for n PD stages with gains drawn uniformly per vehicle.

    The plant order is fixed at m=2: stage k is 1/s^2 under c = 1 + k s,
    whose closed loop is T_k = (1 + k s)/(s^2 + k s + 1), read from its
    closed form with no stability test and no gcd, because:

    - each drawn k, exact or rounded once to a float, is >= k_min > 0, and
      s^2 + k s + 1 is Hurwitz for every k > 0 (positive coefficients);
    - the characteristic polynomial s^2 * 1 + 1 * (1 + k s) is that
      quadratic, so the loop passes internal_stability's one Routh test;
    - 1 + k s and s^2 + k s + 1 are coprime, since the quadratic is
      1/k^2 != 0 at the numerator's root s = -1/k; the monic ratio is
      therefore already canonical, with the coefficients of the T that
      internal_stability returns.

    Every gain comes from one keyed generator (pd_gain's draws), one pass
    per chunk of trials, and each trial is evaluated on pd_window's samples
    of the grid by _trial_peaks. With x = omega^2,

        |T_k(j omega)|^2 = (1 + k^2 x)/((1 - x)^2 + k^2 x), so
        |T_k(j omega)|^2 - 1 = x (2 - x)/((1 - x)^2 + k^2 x),

    and the derivative of |T_k|^2 in x is (2 - 2x - k^2 x^2) over the
    squared denominator. Hence, for every k > 0:

    - |T_k| > 1 for 0 < x < 2 and |T_k| <= 1 for x >= 2: past sqrt 2 every
      stage, and so the cascade, is at most 1, below any sample in
      (0, sqrt 2);
    - |T_k| increases for x < x*(k) = 2/(1 + sqrt(1 + 2 k^2)), the positive
      root of k^2 x^2 + 2x - 2, and decreases after it. x*(k) < 1 falls as
      k grows, so with every k in [k_min, k_max] the cascade increases on
      (0, x*(k_max)] and decreases on [x*(k_min), inf).

    So every sample before the last one at or below w*(k_max) = sqrt(x*(k_max))
    is below it, every sample after the first one at or above w*(k_min) is
    below that one, and no sample past sqrt 2 is the maximum unless the
    grid starts there. The grid maximum lies in pd_window's samples, each
    summed as on the full grid, so the report is the full grid's wherever
    the float sums order the samples as the exact values do: for k_max up
    to 1e3, while from about 1e15 up the full grid may pick an earlier tie.

    Deterministic: the report is a pure function of
    (n, k_min, k_max, trials, seed, grid).
    """
    if n < 1 or trials < 1:
        raise InvalidRange("n and trials must be >= 1")
    if not 0 < k_min <= k_max:
        raise InvalidRange("need 0 < k_min <= k_max")
    if grid is None:
        grid = default_grid()
    samples = [grid[i] for i in pd_window(k_min, k_max, grid)]
    drawer = _GainDrawer(seed, k_min, k_max)
    chunk = max(1, _DRAW_GAINS // n)
    peaks, argmaxes = [], []
    for c0 in range(1, trials + 1, chunk):
        count = min(chunk, trials + 1 - c0)
        p, a = _trial_peaks(drawer.gains(c0, count, range(1, n + 1)), count, samples)
        peaks += p
        argmaxes += a
    return MistuneReport(n, trials, seed, float(k_min), float(k_max), _SCHEME,
                         tuple(peaks), tuple(argmaxes), statistics.median(peaks), max(peaks))
