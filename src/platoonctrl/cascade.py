"""Predecessor-following analysis: cascade amplification and its obstruction.

The spacing error at vehicle n is the head disturbance filtered through the
product of the per-stage complementary sensitivities, so everything here
works with sums of log-magnitudes (safe for long cascades). The integral
obstruction says that for a double integrator or worse, any internally
stabilising loop has ln|T| integrating to a nonnegative value against
1/omega^2, so |T| > 1 somewhere and a homogeneous cascade grows
geometrically. The randomized PD experiment probes how much plain parameter
scatter already mitigates that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DivergentAtOrigin, InvalidRange, StabilityCheckFailed
from .freq import FrequencyGrid, default_grid, hinf_norm, rf_log_abs_jomega
from .poly import Polynomial, hurwitz_stable
from .ratfun import RationalFunction, closed_loop, internal_stability
from .synthesis import plant

_DB = 20.0 / math.log(10.0)


# ----------------------------------------------------------------------
# cascade gain

@dataclass(frozen=True)
class CascadeProfile:
    """Cumulative log-magnitude of prod_k T_k over a grid, with its peak."""

    grid: FrequencyGrid
    log_magnitudes: np.ndarray
    peak: float
    argmax_omega: float

    def to_csv(self) -> str:
        lines = ["omega,abs,abs_db"]
        for om, lg in zip(self.grid.omegas, self.log_magnitudes):
            lines.append(f"{float(om)!r},{math.exp(lg)!r},{float(lg) * _DB!r}")
        return "\n".join(lines) + "\n"


def cascade_gain(controllers: Sequence[RationalFunction], m: int,
                 grid: FrequencyGrid | None = None) -> CascadeProfile:
    """Per-omega sum of log|T_k(j omega)| for the cascade of the given stages.

    Each controller must internally stabilise 1/s^m; the failure message
    names the 1-based offender. The profile equals |y_n/d_1| pointwise for
    the n-stage cascade.
    """
    if not controllers:
        raise InvalidRange("need at least one controller")
    if grid is None:
        grid = default_grid()
    p = plant(m)
    total = np.zeros(len(grid.omegas))
    for i, c in enumerate(controllers, start=1):
        if not internal_stability(p, c).internally_stable:
            raise StabilityCheckFailed(
                f"controller {i} of {len(controllers)} does not internally stabilise 1/s^{m}")
        total = total + rf_log_abs_jomega(closed_loop(p, c)[1], grid.omegas)
    top = int(np.argmax(total))
    return CascadeProfile(grid, total, float(np.exp(np.float64(total[top]))),
                          float(grid.omegas[top]))


# ----------------------------------------------------------------------
# the integral obstruction

class MiddletonResult(NamedTuple):
    value: float
    truncation_bound: float


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, 24)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
    flm, frm = f(lm), f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        # Richardson extrapolation of the two half-panels
        return left + right + (left + right - whole) / 15.0
    return (_simpson_rec(f, a, mid, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_rec(f, mid, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def middleton_integral(T: RationalFunction, omega_lo: float = 1e-6,
                       omega_hi: float = 1e6, tol: float = 1e-8) -> MiddletonResult:
    """Estimate of integral over (0, inf) of ln|T(j omega)| / omega^2.

    Requires T stable, strictly proper, and T(0) = 1 (otherwise the integrand
    has a non-integrable 1/omega^2 singularity at the origin and
    DivergentAtOrigin is raised). The body is integrated per decade with
    adaptive Simpson in u = ln(omega); below omega_lo the integrand is
    essentially its limit value so the head is estimated as one rectangle,
    and above omega_hi the rolloff |T| ~ C/omega^r gives a closed-form tail.
    The reported bound is |head| + |tail| + the quadrature allowance, so the
    estimate's distance from the true integral is controlled, not hidden.
    """
    if not (0 < omega_lo < omega_hi):
        raise InvalidRange("need 0 < omega_lo < omega_hi")
    if T.num.is_zero or T.num.degree >= T.den.degree:
        raise StabilityCheckFailed("T must be nonzero and strictly proper")
    if not hurwitz_stable(T.den):
        raise StabilityCheckFailed("T must be stable")
    t0 = T(Fraction(0))
    if t0 != 1:
        raise DivergentAtOrigin(f"T(0) = {t0} != 1")

    def g(u: float) -> float:
        # integrand after omega = e^u: ln|T(j e^u)| e^{-u}
        om = math.exp(u)
        return float(rf_log_abs_jomega(T, np.array([om]))[0]) * math.exp(-u)

    lo_d, hi_d = math.log10(omega_lo), math.log10(omega_hi)
    edges = [lo_d]
    k = math.floor(lo_d) + 1
    while k < hi_d:
        edges.append(float(k))
        k += 1
    edges.append(hi_d)
    body = 0.0
    for a_d, b_d in zip(edges, edges[1:]):
        body += _adaptive_simpson(g, a_d * math.log(10.0), b_d * math.log(10.0), tol)

    head = float(rf_log_abs_jomega(T, np.array([omega_lo]))[0]) / omega_lo
    r = T.den.degree - T.num.degree
    lead_ratio = T.num.leading() / T.den.leading()
    ln_c = math.log(abs(float(lead_ratio)))
    w = omega_hi
    tail = ln_c / w - r * (math.log(w) + 1.0) / w
    bound = abs(head) + abs(tail) + tol * (len(edges) - 1)
    return MiddletonResult(head + body + tail, bound)


# ----------------------------------------------------------------------
# homogeneous growth

@dataclass(frozen=True)
class GrowthTable:
    """n-th powers of the closed-loop peak: the homogeneous cascade bound."""

    omega0: float
    hinf: float
    rows: Tuple[Tuple[int, float], ...]
    growth_flagged: bool

    def to_csv(self) -> str:
        lines = ["n,gain"]
        for n, gain in self.rows:
            lines.append(f"{n},{gain!r}")
        return "\n".join(lines) + "\n"


def homogeneous_growth(c: RationalFunction, m: int, n_max: int,
                       grid: FrequencyGrid | None = None) -> GrowthTable:
    """Peak frequency omega0 and the gains ||T||^n for n = 1..n_max.

    A cascade of n identical stages admits |y_n/d_1| >= |T(j omega0)|^n at
    the peak frequency, so the table is the exponential lower envelope; the
    growth flag fires when the peak exceeds 1 (beyond float fuzz).
    """
    if n_max < 1:
        raise InvalidRange("n_max must be >= 1")
    p = plant(m)
    if not internal_stability(p, c).internally_stable:
        raise StabilityCheckFailed(f"controller does not internally stabilise 1/s^{m}")
    res = hinf_norm(closed_loop(p, c)[1], grid if grid is not None else default_grid())
    if not res.finite:
        raise StabilityCheckFailed("closed loop has no finite peak")
    with np.errstate(over="ignore"):
        rows = tuple((n, float(np.float64(res.norm) ** n)) for n in range(1, n_max + 1))
    return GrowthTable(res.argmax_omega, res.norm, rows, bool(res.norm > 1.0 + 1e-12))


# ----------------------------------------------------------------------
# randomized PD mistuning

_SCHEME = "philox4x64:key=seed;counter=[trial,vehicle,0,0];one-uniform-per-draw"


def pd_gain(seed: int, trial: int, vehicle: int, k_min: float, k_max: float) -> Fraction:
    """The derivative gain for (trial, vehicle), exact and order-independent.

    One uniform draw from a counter-based generator keyed by the seed with
    the (1-based) trial and vehicle indices in the counter block, so any
    draw can be reproduced in isolation. The float draw is then frozen as an
    exact rational so downstream algebra stays exact.
    """
    bg = np.random.Philox(key=seed, counter=[trial, vehicle, 0, 0])
    u = np.random.Generator(bg).random()
    return Fraction(k_min) + (Fraction(k_max) - Fraction(k_min)) * Fraction(u)


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


def pd_mistune_experiment(n: int, k_min: float, k_max: float, trials: int,
                          seed: int, grid: FrequencyGrid | None = None) -> MistuneReport:
    """Cascade peaks for n PD stages with gains drawn uniformly per vehicle.

    The plant order is fixed at m=2 (each stage is 1/s^2 under c = 1 + k s,
    stabilising for every k > 0). Deterministic: the report is a pure
    function of (n, k_min, k_max, trials, seed, grid).
    """
    if n < 1 or trials < 1:
        raise InvalidRange("n and trials must be >= 1")
    if not 0 < k_min <= k_max:
        raise InvalidRange("need 0 < k_min <= k_max")
    if grid is None:
        grid = default_grid()
    s = Polynomial([0, 1])
    peaks, argmaxes = [], []
    for t in range(1, trials + 1):
        stages = []
        for v in range(1, n + 1):
            k = pd_gain(seed, t, v, k_min, k_max)
            stages.append(RationalFunction(Polynomial([1]) + k * s, Polynomial([1])))
        prof = cascade_gain(stages, 2, grid)
        peaks.append(prof.peak)
        argmaxes.append(prof.argmax_omega)
    return MistuneReport(n, trials, seed, float(k_min), float(k_max), _SCHEME,
                         tuple(peaks), tuple(argmaxes),
                         float(np.median(peaks)), float(max(peaks)))
