"""Frequency grids, overflow-safe magnitude evaluation, and the H-infinity
norm estimator.

The magnitude engine works in log space throughout: polynomial coefficients
are rescaled by their largest magnitude (computed from exact big-integer
logs when needed), and evaluation at |z| > 1 uses the reversed-coefficient
identity p(z) = z^deg * p_rev(1/z). Coefficients beyond double range
therefore evaluate without overflow; terms more than about 10^308 below the
largest coefficient underflow to zero, which is why scaled controller
families are swept on their base closed loop at scaled frequencies rather
than on their exact members.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvalidRange
from .poly import Polynomial, hurwitz_stable
from .ratfun import RationalFunction


class FrequencyGrid:
    """Log-uniform grid of positive frequencies (rad/s), endpoints included."""

    __slots__ = ("omega_min", "omega_max", "points_per_decade", "omegas")

    def __init__(self, omega_min: float, omega_max: float, points_per_decade: int = 200):
        if not (0 < omega_min < omega_max):
            raise InvalidRange("need 0 < omega_min < omega_max")
        if points_per_decade < 1:
            raise InvalidRange("points_per_decade must be >= 1")
        decades = math.log10(omega_max / omega_min)
        n = max(2, round(decades * points_per_decade) + 1)
        om = np.logspace(math.log10(omega_min), math.log10(omega_max), n)
        om[0], om[-1] = omega_min, omega_max
        om.setflags(write=False)
        self.omega_min = float(omega_min)
        self.omega_max = float(omega_max)
        self.points_per_decade = int(points_per_decade)
        self.omegas = om

    def __len__(self):
        return len(self.omegas)

    def __iter__(self):
        return iter(self.omegas)

    def __eq__(self, other):
        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        return (self.omega_min, self.omega_max, self.points_per_decade) == \
               (other.omega_min, other.omega_max, other.points_per_decade)

    def __hash__(self):
        return hash((self.omega_min, self.omega_max, self.points_per_decade))

    def __repr__(self):
        return (f"FrequencyGrid({self.omega_min:g}, {self.omega_max:g}, "
                f"{self.points_per_decade})")


_default = None


def default_grid() -> FrequencyGrid:
    """The documented default sweep: 1e-4..1e4 rad/s at 200 points/decade."""
    global _default
    if _default is None:
        _default = FrequencyGrid(1e-4, 1e4, 200)
    return _default


# ----------------------------------------------------------------------
# log-magnitude engine

def _log_abs_coeff(c: Fraction) -> float:
    """log|c| for a nonzero Fraction, immune to float overflow."""
    return math.log(abs(c.numerator)) - math.log(c.denominator)


def _scaled_descending(p: Polynomial):
    """(descending float coeffs scaled to max |coeff| = 1, log of the scale)."""
    if p.is_zero:
        return None, -math.inf
    logs = [(-math.inf if c == 0 else _log_abs_coeff(c)) for c in p.coeffs]
    top = max(logs)
    scaled = []
    for c, lg in zip(p.coeffs, logs):
        if c == 0:
            scaled.append(0.0)
        else:
            mag = math.exp(lg - top)
            scaled.append(mag if c > 0 else -mag)
    return np.array(scaled[::-1], dtype=float), top


def poly_log_abs_jomega(p: Polynomial, omegas) -> np.ndarray:
    """ln|p(j*omega)| per sample, safe across extreme coefficient scales."""
    omegas = np.asarray(omegas, dtype=float)
    if p.is_zero:
        return np.full(omegas.shape, -np.inf)
    desc, top = _scaled_descending(p)
    d = len(desc) - 1
    z = 1j * omegas
    out = np.empty(omegas.shape)
    small = omegas <= 1.0
    with np.errstate(divide="ignore"):
        if small.any():
            out[small] = np.log(np.abs(np.polyval(desc, z[small])))
        big = ~small
        if big.any():
            # p(z) = z^d * p_rev(1/z) keeps the argument inside the unit disk
            out[big] = d * np.log(omegas[big]) + \
                np.log(np.abs(np.polyval(desc[::-1], 1.0 / z[big])))
    return out + top


def rf_log_abs_jomega(f: RationalFunction, omegas) -> np.ndarray:
    """ln|f(j*omega)| per sample."""
    return poly_log_abs_jomega(f.num, omegas) - poly_log_abs_jomega(f.den, omegas)


def rf_abs_jomega(f: RationalFunction, omegas) -> np.ndarray:
    """|f(j*omega)| per sample."""
    with np.errstate(over="ignore"):
        return np.exp(rf_log_abs_jomega(f, omegas))


# ----------------------------------------------------------------------
# H-infinity norm

class HinfResult(NamedTuple):
    norm: float
    argmax_omega: float
    finite: bool


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
    no finite supremum and is flagged as (inf, nan, finite=False) rather
    than raised.
    """
    if grid is None:
        grid = default_grid()
    if f.num.is_zero:
        return HinfResult(0.0, 0.0, True)
    stable = f.den.degree == 0 or hurwitz_stable(f.den)
    if not f.is_proper or not stable:
        return HinfResult(math.inf, math.nan, False)

    logs = rf_log_abs_jomega(f, grid.omegas)
    i = int(np.argmax(logs))
    candidates = [(float(logs[i]), float(grid.omegas[i]))]

    lo = float(grid.omegas[max(i - 1, 0)])
    hi = float(grid.omegas[min(i + 1, len(grid.omegas) - 1)])
    if hi > lo:
        scalar = lambda w: float(rf_log_abs_jomega(f, np.array([w]))[0])
        w_star, g_star = _golden_max(scalar, lo, hi)
        candidates.append((g_star, w_star))

    n0 = f.num.coeffs[0]
    if n0 != 0:
        candidates.append((_log_abs_coeff(n0) - _log_abs_coeff(f.den.coeffs[0]), 0.0))
    if f.num.degree == f.den.degree:
        candidates.append((_log_abs_coeff(f.num.coeffs[-1]) - _log_abs_coeff(f.den.coeffs[-1]),
                           math.inf))

    best_log, best_w = max(candidates)
    norm = float(np.exp(np.float64(best_log)))
    return HinfResult(norm, best_w, True)
