"""Predecessor-following analysis: cascade amplification and its obstruction.

The spacing error at vehicle n is the head disturbance filtered through the
product of the per-stage complementary sensitivities, so everything here
works with sums of log-magnitudes (safe for long cascades). The integral
obstruction says that for a double integrator or worse, any internally
stabilising loop has ln|T| integrating to a nonnegative value against
1/omega^2, so |T| > 1 somewhere and a homogeneous cascade grows
geometrically. That integral is computed from its closed form in T'(0) and
the right-half-plane zeros of T, not by quadrature. The randomized PD
experiment probes how much plain parameter scatter already mitigates that.

The experiment is the package's one float path, and its magnitude engine
lives here, in log space: coefficients are scaled by their largest
magnitude, from exact big-integer logs, and |z| > 1 uses
p(z) = z^deg p_rev(1/z), so none overflows. np.polyval's Horner steps run
on a stack of equal-degree rows at once, bit for bit as on each alone, at
np.logspace samples of a LogGrid's range and count, both endpoints exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from ._lazy import np
from .errors import DivergentAtOrigin, InvalidRange, StabilityCheckFailed
from .freq import LogGrid, default_grid, exceeds_unity, hinf_norm
from .poly import hurwitz_stable
from .ratfun import RationalFunction, hurwitz_denominator, internal_stability, plant

_SQRT2 = math.sqrt(2.0)


# ----------------------------------------------------------------------
# log-magnitude engine

def _log_abs_coeff(c) -> float:
    """log|c| for a nonzero int or Fraction, immune to float overflow."""
    return math.log(abs(c.numerator)) - math.log(c.denominator)


def _scaled_descending(coeffs):
    """(descending float coeffs scaled to max |coeff| = 1, log of the scale).

    coeffs is a nonempty ascending sequence of ints or Fractions without
    trailing zeros, as Polynomial.coeffs holds it.
    """
    logs = [(-math.inf if c == 0 else _log_abs_coeff(c)) for c in coeffs]
    top = max(logs)
    scaled = []
    for c, lg in zip(coeffs, logs):
        if c == 0:
            scaled.append(0.0)
        else:
            mag = math.exp(lg - top)
            scaled.append(mag if c > 0 else -mag)
    return np.array(scaled[::-1], dtype=float), top


def _horner(desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    # np.polyval's y = y*z + c, over a stack of rows of coefficients; c
    # enters as c + 0j, and in place it skips a cast and a temporary per step
    c = desc.astype(complex)
    y = np.zeros(desc.shape[:-1] + z.shape, dtype=complex)
    for i in range(desc.shape[-1]):
        y *= z
        y += c[..., i, None]
    return y


def _log_abs_scaled(desc: np.ndarray, top: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """ln|p(j*omega)| per sample for a stack of _scaled_descending rows of one degree.

    desc holds one row per polynomial and top the matching column of scale
    logs; the result has one row per polynomial.
    """
    d = desc.shape[-1] - 1
    z = 1j * omegas
    out = np.empty(desc.shape[:-1] + omegas.shape)
    small = omegas <= 1.0
    with np.errstate(divide="ignore"):
        if small.any():
            out[..., small] = np.log(np.abs(_horner(desc, z[small])))
        big = ~small
        if big.any():
            # p(z) = z^d * p_rev(1/z) keeps the argument inside the unit disk
            out[..., big] = d * np.log(omegas[big]) + \
                np.log(np.abs(_horner(desc[..., ::-1], 1.0 / z[big])))
    return out + top


def _samples(grid: LogGrid) -> np.ndarray:
    # np.logspace over the grid's range and count, both endpoints exact
    om = np.logspace(math.log10(grid.omega_min), math.log10(grid.omega_max), len(grid))
    om[0], om[-1] = grid.omega_min, grid.omega_max
    return om


# ----------------------------------------------------------------------
# cascade peaks

def _peaks(totals, omegas) -> list:
    # (peak, its omega) at the first maximum of each row of summed
    # log-magnitudes; each peak is exp'd alone, as a vector exp may round
    # differently, and one past double range overflows to inf
    tops = np.argmax(totals, axis=1).tolist()
    with np.errstate(over="ignore"):
        return [(float(np.exp(np.float64(row[top]))), float(omegas[top]))
                for row, top in zip(totals, tops)]


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

    T'(0) = (n1 - d1)/d0 is exact, since n0 = d0. The zero sum is empty
    when T's numerator passes the exact Routh test; otherwise np.roots of
    the numerator's scaled ascending coefficients gives w = 1/z for every
    zero, and pi * max(Re w, 0) is added. That term is continuous in w, so a
    zero near the axis whose side is misjudged moves the sum by next to
    nothing. A value past double range is returned as +-inf.
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
        w = np.roots(_scaled_descending(n)[0][::-1])
        value += math.pi * float(np.maximum(w.real, 0.0).sum())
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
# stage-samples evaluated as one stack: a block of trials fills it, or is one
# trial when that trial's stages alone pass it. At 2^14 the peak memory of
# pd-random --n 20 --trials 200 is that of one trial a block, 37.6 MB; at
# 2^16 it is 1 MB more
_BLOCK_SAMPLES = 2 ** 14
# gains drawn per reset of the generator, n vehicles times a chunk of trials
# that is a whole number of blocks: at 2^18 their logs take about 8 MB, and
# pd-random --n 10000 --trials 31 resets it twice per vehicle, not 31 times
_DRAW_GAINS = 2 ** 18


class _GainDrawer:
    """(trial, vehicle) -> the exact derivative gain, from one keyed generator.

    Philox is counter-based (Salmon et al., SC 2011): a fresh generator with
    key seed and counter [trial, vehicle, 0, 0] holds no buffered output, and
    its first uniform is the first word of the block at counter
    [trial + 1, vehicle, 0, 0]. One generator whose documented state is set
    to counter [t0, vehicle, 0, 0] with an empty buffer (buffer_pos 4) reads
    the blocks at [t0 + 1, vehicle], [t0 + 2, vehicle], ... in turn, four
    uniforms each, so every fourth uniform it draws is the draw of trial t0,
    t0 + 1, ... for that vehicle: one stream per vehicle and chunk of trials.

    A uniform is u = m / 2^53, m being the top 53 bits of the generator's
    64-bit word, so the gain k_min + (k_max - k_min) u is (a + b m)/c, with
    c the power of 2 that makes k_min c = a and (k_max - k_min) c / 2^53 = b
    integers. Dividing out gcd(a + b m, c) leaves the reduced pair that
    Fraction holds.
    """

    def __init__(self, seed: int, k_min: float, k_max: float):
        self._bg = np.random.Philox(key=seed)
        self._state = self._bg.state
        lo = Fraction(k_min)
        width = Fraction(k_max) - lo
        self._c = math.lcm(lo.denominator, width.denominator << 53)
        self._a = lo.numerator * (self._c // lo.denominator)
        self._b = width.numerator * (self._c // (width.denominator << 53))

    def pairs(self, t0: int, count: int, vehicle: int):
        """The reduced (numerator, denominator) of the gains of trials t0 .. t0 + count - 1."""
        self._state["state"]["counter"] = [t0, vehicle, 0, 0]
        self._state["buffer_pos"] = 4
        self._bg.state = self._state
        a, b, c = self._a, self._b, self._c
        out = []
        for m in (self._bg.random_raw(4 * count - 3)[::4] >> 11).tolist():
            x = a + b * m
            g = math.gcd(x, c)
            out.append((x // g, c // g))
        return out

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


def pd_window(k_max: float, grid: LogGrid) -> np.ndarray:
    """The grid's np.logspace samples that can hold a PD cascade's maximum, every gain <= k_max.

    They run from the last sample at or below w*(k_max) to the last one
    below sqrt 2, at least one; pd_mistune_experiment's docstring proves
    that the maximum lies there.
    """
    om = _samples(grid)
    lo = max(int(np.searchsorted(om, _rising_edge(k_max), "right")) - 1, 0)
    # the float sqrt 2 lies above the exact one, so no sample below it is dropped
    hi = max(int(np.searchsorted(om, _SQRT2)), lo + 1)
    return om[lo:hi]


def _stage_rows(log_ks):
    """_scaled_descending's rows of (1, k) and (1, k, 1), and their scale log, per ln k.

    Both sequences' largest log is top = max(0, ln k), so their rows are
    [exp(ln k - top), exp(0 - top)] and [exp(0 - top), exp(ln k - top),
    exp(0 - top)]: the same operations on the same floats, with no Fraction.
    """
    lk = np.array(log_ks)
    top = np.maximum(lk, 0.0)
    # math.exp, as there: numpy's exp may round differently
    k = np.array([math.exp(x) for x in (lk - top).tolist()])
    one = np.array([math.exp(x) for x in (0.0 - top).tolist()])
    return np.stack([k, one], 1), np.stack([one, k, one], 1), top[:, None]


def _trial_peaks(log_ks, n: int, window) -> list:
    """(peak, argmax omega) over the window per trial of n stages, log_ks their ln k trial by trial.

    The numerators and the denominators are each one stack for
    _log_abs_scaled, which gives every row bit for bit as evaluating it
    alone would, and each trial's rows are summed in stage order, so each
    peak is the one a loop over the trial's stages gives.
    """
    nums, dens, tops = _stage_rows(log_ks)
    rows = _log_abs_scaled(nums, tops, window) - _log_abs_scaled(dens, tops, window)
    rows = rows.reshape(-1, n, len(window))
    total = np.zeros((rows.shape[0], len(window)))
    for v in range(n):
        total = total + rows[:, v]
    return _peaks(total, window)


def pd_cascade_peak(ks, k_max: float, grid: LogGrid) -> Tuple[float, float]:
    """(peak, argmax omega) over the grid of the cascade of PD stages with gains ks.

    Stage k is T_k = (1 + k s)/(s^2 + k s + 1); ks holds one or more ints or
    Fractions with 0 < k <= k_max. Only pd_window's samples are evaluated,
    the same way pd_mistune_experiment evaluates a trial.
    """
    return _trial_peaks([_log_abs_coeff(k) for k in ks], len(ks), pd_window(k_max, grid))[0]


def pd_mistune_experiment(n: int, k_min: float, k_max: float, trials: int,
                          seed: int, grid: LogGrid | None = None) -> MistuneReport:
    """Cascade peaks for n PD stages with gains drawn uniformly per vehicle.

    The plant order is fixed at m=2: stage k is 1/s^2 under c = 1 + k s,
    whose closed loop is read from its closed form
    T_k = (1 + k s)/(s^2 + k s + 1) as the coefficient pair
    ((1, k), (1, k, 1)), with no stability test and no gcd, because:

    - the drawer returns an exact k >= k_min > 0, and s^2 + k s + 1 is Hurwitz
      for every k > 0 (a monic quadratic with positive coefficients);
    - the characteristic polynomial s^2 * 1 + 1 * (1 + k s) is that
      quadratic, so the loop passes internal_stability's one Routh test;
    - 1 + k s and s^2 + k s + 1 are coprime, since the quadratic is
      1/k^2 != 0 at the numerator's root s = -1/k; the monic ratio is
      therefore already canonical, with the coefficients of the T that
      internal_stability returns.

    Every gain comes from one keyed generator (pd_gain's draws), one stream
    per vehicle and chunk of trials, and each block of trials within a chunk
    is evaluated on pd_window's samples of the grid as one stack. With
    x = omega^2,

        |T_k(j omega)|^2 = (1 + k^2 x)/((1 - x)^2 + k^2 x), so
        |T_k(j omega)|^2 - 1 = x (2 - x)/((1 - x)^2 + k^2 x),

    and the derivative of |T_k|^2 in x is (2 - 2x - k^2 x^2) over the
    squared denominator. Hence, for every k > 0:

    - |T_k| > 1 for 0 < x < 2 and |T_k| <= 1 for x >= 2: past sqrt 2 every
      stage, and so the cascade, is at most 1, below any sample in
      (0, sqrt 2);
    - |T_k| increases for x < x*(k) = 2/(1 + sqrt(1 + 2 k^2)), the positive
      root of k^2 x^2 + 2x - 2, and decreases after it. x*(k) < 1 falls as
      k grows, so with every k <= k_max the cascade increases on
      (0, x*(k_max)) and decreases on (1, inf).

    So the grid maximum lies at or after the last sample at or below
    w*(k_max) = sqrt(x*(k_max)), every earlier sample being smaller, and
    before the first sample at or above sqrt 2. If no sample lies in
    (0, sqrt 2), the grid starts at or past sqrt 2, where the cascade
    decreases, and its first sample is the maximum. Each kept sample is
    summed, stage by stage, from the same float rows as on the full grid,
    and argmax takes the first maximum, so the report equals the full
    grid's whenever its float order agrees with the exact one. It does for
    k_max up to 1e3. From about 1e4 up, a cascade's excess over 1 falls
    below double resolution, and the full grid's maximum is then rounding
    noise that the window does not reproduce.

    Deterministic: the report is a pure function of
    (n, k_min, k_max, trials, seed, grid).
    """
    if n < 1 or trials < 1:
        raise InvalidRange("n and trials must be >= 1")
    if not 0 < k_min <= k_max:
        raise InvalidRange("need 0 < k_min <= k_max")
    if grid is None:
        grid = default_grid()
    window = pd_window(k_max, grid)
    drawer = _GainDrawer(seed, k_min, k_max)
    block = max(1, _BLOCK_SAMPLES // (n * len(window)))
    chunk = block * max(1, _DRAW_GAINS // (n * block))
    results = []
    for c0 in range(1, trials + 1, chunk):
        # log_ks[v][i] is ln k of vehicle v + 1 in trial c0 + i, taken as
        # _log_abs_coeff takes it
        count = min(chunk, trials + 1 - c0)
        log_ks = [[math.log(p) - math.log(q) for p, q in drawer.pairs(c0, count, v)]
                  for v in range(1, n + 1)]
        for b0 in range(0, count, block):
            results += _trial_peaks([lk for stages in zip(*(row[b0:b0 + block] for row in log_ks))
                                     for lk in stages], n, window)
    peaks, argmaxes = zip(*results)
    return MistuneReport(n, trials, seed, float(k_min), float(k_max), _SCHEME,
                         peaks, argmaxes, float(np.median(peaks)), float(max(peaks)))
