"""Frequency grids, overflow-safe magnitude evaluation, and the H-infinity
norm estimator.

The magnitude engine works in log space throughout: polynomial coefficients
are rescaled by their largest magnitude (computed from exact big-integer
logs when needed), and evaluation at |z| > 1 uses the reversed-coefficient
identity p(z) = z^deg * p_rev(1/z). Coefficients beyond double range
therefore evaluate without overflow; terms more than about 10^308 below the
largest coefficient underflow to zero.

log_abs_evaluator is the engine's one entry point. It reads each exact
ascending coefficient sequence (Polynomial.coeffs, or a tuple of ints and
Fractions a caller knows in closed form) once and scales it, the costly
step; each call then runs Horner's y = y*z + c, the sequence np.polyval
runs, on a stack of the equal-degree sequences at once, bit for bit as it
would on each alone.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from ._lazy import np
from .errors import InvalidRange, StabilityCheckFailed
from .ratfun import RationalFunction, hurwitz_denominator


class FrequencyGrid:
    """Log-uniform grid of positive frequencies (rad/s), endpoints included."""

    __slots__ = ("omega_min", "omega_max", "points_per_decade", "omegas")

    def __init__(self, omega_min: float, omega_max: float, points_per_decade: int = 200):
        if not (0 < omega_min < omega_max < math.inf):
            raise InvalidRange("need 0 < omega_min < omega_max < inf")
        if points_per_decade < 1:
            raise InvalidRange("points_per_decade must be >= 1")
        n = grid_samples(omega_min, omega_max, points_per_decade)
        om = np.logspace(math.log10(omega_min), math.log10(omega_max), n)
        om[0], om[-1] = omega_min, omega_max
        om.setflags(write=False)
        self.omega_min = float(omega_min)
        self.omega_max = float(omega_max)
        self.points_per_decade = int(points_per_decade)
        self.omegas = om

    def __repr__(self):
        return (f"FrequencyGrid({self.omega_min:g}, {self.omega_max:g}, "
                f"{self.points_per_decade})")


def grid_samples(omega_min: float, omega_max: float, points_per_decade: int) -> int:
    """The number of samples FrequencyGrid(omega_min, omega_max, points_per_decade) holds.

    A count past double range, which no grid could hold, is InvalidRange.
    """
    # a difference of logs: omega_max / omega_min can overflow
    decades = math.log10(omega_max) - math.log10(omega_min)
    try:
        return max(2, round(decades * points_per_decade) + 1)
    except OverflowError:  # the int points_per_decade, or the product, past double range
        raise InvalidRange("the grid's sample count must lie in double range") from None


@functools.cache
def default_grid() -> FrequencyGrid:
    """The documented default sweep: 1e-4..1e4 rad/s at 200 points/decade.

    Built on first use, so importing the package runs no numpy.
    """
    return FrequencyGrid(1e-4, 1e4, 200)


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


def _stacks(seqs):
    # the nonzero sequences grouped by degree: (their indices, the scaled
    # stack, its column of scale logs) per degree
    by_degree = {}
    for k, cs in enumerate(seqs):
        if cs:
            by_degree.setdefault(len(cs), []).append(k)
    out = []
    for rows in by_degree.values():
        scaled = [_scaled_descending(seqs[k]) for k in rows]
        out.append((rows, np.array([desc for desc, _ in scaled]),
                    np.array([[top] for _, top in scaled])))
    return out


def log_abs_evaluator(pairs):
    """omegas -> rows, row k being ln|num_k(j*omega) / den_k(j*omega)| for pairs[k] = (num_k, den_k).

    num_k and den_k are ascending coefficient sequences, Polynomial.coeffs
    or a closed-form tuple of ints and Fractions; the empty sequence is 0,
    whose log is -inf. Each sequence is scaled once, here, and each call
    evaluates the sequences of one degree as one stack, which gives each
    sequence's row bit for bit as evaluating it alone would.
    """
    count = len(pairs)
    nums = _stacks([num for num, _ in pairs])
    dens = _stacks([den for _, den in pairs])

    def rows(stacks, omegas):
        if len(stacks) == 1 and len(stacks[0][0]) == count:
            # one stack holds every row, in order: the common one-function call
            return _log_abs_scaled(stacks[0][1], stacks[0][2], omegas)
        out = np.full((count, len(omegas)), -np.inf)
        for idx, desc, top in stacks:
            out[idx] = _log_abs_scaled(desc, top, omegas)
        return out

    def log_abs(omegas) -> np.ndarray:
        omegas = np.asarray(omegas, dtype=float)
        return rows(nums, omegas) - rows(dens, omegas)

    return log_abs


# ----------------------------------------------------------------------
# H-infinity norm

class HinfResult(NamedTuple):
    norm: float
    argmax_omega: float


def _golden_max(g, lo: float, hi: float, rel_tol: float = 1e-10):
    """Golden-section maximization of g over [lo, hi] in log-omega."""
    a, b = math.log(lo), math.log(hi)
    if not b > a:
        return lo, g(lo)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(math.exp(c)), g(math.exp(d))
    while (b - a) > rel_tol:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(math.exp(c))
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(math.exp(d))
    w = math.exp(0.5 * (a + b))
    return w, g(w)


def hinf_norm(f: RationalFunction, grid: FrequencyGrid | None = None) -> HinfResult:
    """Peak magnitude over the imaginary axis, as a certified lower bound.

    Candidates: every grid sample, omega = 0, omega = infinity (when
    deg num = deg den), and a golden-section refinement to 1e-10 relative
    omega-width around the best grid sample. Unstable or improper input has
    no finite supremum and raises StabilityCheckFailed; a StableLoop's
    denominator is proven Hurwitz, so only a plain RationalFunction's is
    Routh-tested.
    """
    if f.num.is_zero:
        return HinfResult(0.0, 0.0)
    if not (f.is_proper and hurwitz_denominator(f)):
        raise StabilityCheckFailed("closed loop has no finite peak")
    if grid is None:
        grid = default_grid()

    log_abs = log_abs_evaluator([(f.num.coeffs, f.den.coeffs)])
    logs = log_abs(grid.omegas)[0]
    i = int(np.argmax(logs))
    candidates = [(float(logs[i]), float(grid.omegas[i]))]

    lo = float(grid.omegas[max(i - 1, 0)])
    hi = float(grid.omegas[min(i + 1, len(grid.omegas) - 1)])
    w_star, g_star = _golden_max(lambda w: float(log_abs(np.array([w]))[0, 0]), lo, hi)
    candidates.append((g_star, w_star))

    n0 = f.num.coeffs[0]
    if n0 != 0:
        candidates.append((_log_abs_coeff(n0) - _log_abs_coeff(f.den.coeffs[0]), 0.0))
    if f.num.degree == f.den.degree:
        candidates.append((_log_abs_coeff(f.num.coeffs[-1]) - _log_abs_coeff(f.den.coeffs[-1]),
                           math.inf))

    best_log, best_w = max(candidates)
    # a peak past double range overflows to inf
    with np.errstate(over="ignore"):
        norm = float(np.exp(np.float64(best_log)))
    return HinfResult(norm, best_w)
