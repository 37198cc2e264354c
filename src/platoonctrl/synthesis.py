"""Controller synthesis for the integrator-chain plant 1/s^m.

Pipeline: coprime-factor the plant over stable proper rationals, shape the
free Youla parameter so the complementary sensitivity dips below 1 early,
certify the peak and the amplification band on a grid, then fan the certified
design out into a geometrically frequency-scaled family whose amplification
bands are pairwise disjoint. Everything structural is exact rational
arithmetic; floats appear only in grid sweeps and in certificate frequencies.

Two identities carry the pipeline. Youla parametrisation makes
T = N*X*(1 - M*Q1) internally stable for every stable Q1, so the scan
certifies that T directly and a controller is built (and cross-checked)
only for the winner. A scaled member c_k = gamma_k^{-m} c(gamma_k s) has
T_k(s) = T(gamma_k s), so a family is stored as one base controller plus
its gammas, and its checks evaluate the base T at gamma_k * omega.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import (BandwidthViolation, IllPosed, InvalidRange,
                     PeakExceedsBudget, SearchExhausted, StabilityCheckFailed)
from .freq import FrequencyGrid, default_grid, hinf_norm, rf_log_abs_jomega
from .poly import Polynomial
from .ratfun import (RationalFunction, closed_loop, internal_stability,
                     scale_frequency)

_S = Polynomial([0, 1])
_ONE = Polynomial([1])
_ONE_RF = RationalFunction(_ONE, _ONE)

_FAMILY_CAP = 25


def plant(m: int) -> RationalFunction:
    """The m-th order integrator chain 1/s^m."""
    if m < 1:
        raise InvalidRange("m must be >= 1")
    return RationalFunction(_ONE, _S ** m)


# ----------------------------------------------------------------------
# coprime factorization

@dataclass(frozen=True)
class YoulaData:
    """Coprime factors and Bezout pair for 1/s^m, all in RH-infinity."""

    m: int
    N: RationalFunction
    M: RationalFunction
    X: RationalFunction
    Y: RationalFunction


@lru_cache(maxsize=None)
def youla_coprime(m: int) -> YoulaData:
    """N = 1/(s+1)^m, M = s^m/(s+1)^m and the Bezout pair X, Y.

    X has numerator sum_{k<m} C(2m,k) s^k and Y has numerator
    sum_{l=m..2m} C(2m,l) s^{l-m}, both over (s+1)^m; this is the split of
    the binomial expansion of (1+s)^{2m} at index m. The identity
    N*X + M*Y = 1 is checked exactly before returning.
    """
    if m < 1:
        raise InvalidRange("m must be >= 1")
    wp = (_ONE + _S) ** m
    data = YoulaData(
        m,
        N=RationalFunction(_ONE, wp),
        M=RationalFunction(_S ** m, wp),
        X=RationalFunction(Polynomial([math.comb(2 * m, k) for k in range(m)]), wp),
        Y=RationalFunction(Polynomial([math.comb(2 * m, l) for l in range(m, 2 * m + 1)]), wp),
    )
    if data.N * data.X + data.M * data.Y != _ONE_RF:
        raise ArithmeticError(f"Bezout identity failed for m={m}; construction bug")
    return data


def q1_shape(m: int, gamma_a, gamma_b) -> RationalFunction:
    """Q1 = (s+1)^m / ((s+gamma_a)(s+gamma_b)^{m-1}), the band-shaping parameter."""
    if m < 1:
        raise InvalidRange("m must be >= 1")
    ga, gb = Fraction(gamma_a), Fraction(gamma_b)
    if ga <= 0 or gb <= 0:
        raise InvalidRange("gamma_a and gamma_b must be positive")
    den = Polynomial([ga, 1]) * Polynomial([gb, 1]) ** (m - 1)
    return RationalFunction((_ONE + _S) ** m, den)


def youla_closed_loop(m: int, gamma_a, gamma_b) -> RationalFunction:
    """T = N*X*(1 - M*Q1): the closed loop of the Youla candidate, no controller built.

    Q = -X*Q1 is stable for positive gammas, so this T belongs to an
    internally stable loop by construction.
    """
    yd = youla_coprime(m)
    return yd.N * yd.X * (_ONE_RF - yd.M * q1_shape(m, gamma_a, gamma_b))


def candidate_controller(m: int, gamma_a, gamma_b) -> RationalFunction:
    """Youla-parametrized candidate c = (X + M*Q)/(Y - N*Q) with Q = -X*Q1.

    Restricted to m divisible by 4 (the reduction case; lift_order covers the
    rest). The result is verified to internally stabilise 1/s^m, and its
    closed-loop T is verified to equal N*X*(1 - M*Q1) exactly, so the two
    derivation routes cross-check each other on every call.
    """
    if m % 4 != 0:
        raise InvalidRange("candidate_controller requires m divisible by 4")
    yd = youla_coprime(m)
    q1 = q1_shape(m, gamma_a, gamma_b)
    Q = -(yd.X * q1)
    den_rf = yd.Y - yd.N * Q
    if den_rf.num.is_zero:
        raise IllPosed("Y - N*Q is identically zero")
    c = (yd.X + yd.M * Q) / den_rf
    if not internal_stability(plant(m), c).internally_stable:
        raise StabilityCheckFailed(
            f"candidate (m={m}, gamma_a={gamma_a}, gamma_b={gamma_b}) failed the gang-of-four test")
    if closed_loop(plant(m), c)[1] != youla_closed_loop(m, gamma_a, gamma_b):
        raise ArithmeticError("closed-loop and Youla expressions for T disagree; construction bug")
    return c


# ----------------------------------------------------------------------
# certification

@dataclass(frozen=True)
class Certificate:
    """Grid-backed evidence for a controller: peak budget and amplification band.

    |T| <= 1 was verified at every grid sample at or below omega_low and at
    or above omega_high; peak is the refined grid supremum. band_empty marks
    the degenerate case |T| <= 1 everywhere, with omega_low = omega_high = 1
    by convention so downstream gamma ratios degenerate to 1 instead of
    dividing by zero.
    """

    epsilon: float
    peak: float
    omega_low: float
    omega_high: float
    band_empty: bool = False
    gamma_a: Optional[Fraction] = None
    gamma_b: Optional[Fraction] = None

    def with_gammas(self, gamma_a, gamma_b) -> "Certificate":
        return replace(self, gamma_a=Fraction(gamma_a), gamma_b=Fraction(gamma_b))


def _bisect_crossing(T, a: float, b: float, keep_low: bool) -> float:
    # |T| = 1 crossing between a and b; returns the endpoint kept on the
    # |T| <= 1 side, tightened to 1e-10 relative width
    while (b - a) > 1e-10 * b:
        mid = math.sqrt(a * b)
        g = float(rf_log_abs_jomega(T, np.array([mid]))[0])
        if keep_low:
            if g <= 0:
                a = mid
            else:
                b = mid
        else:
            if g <= 0:
                b = mid
            else:
                a = mid
    return a if keep_low else b


def certify_closed_loop(T: RationalFunction, epsilon: float,
                        grid: FrequencyGrid | None = None) -> Certificate:
    """Certify peak |T| <= 1 + epsilon and extract the amplification band.

    omega_low sits strictly below the first grid sample with |T| > 1 and
    omega_high strictly above the last, both refined by bisection while
    staying on the |T| <= 1 side, so the band is placed conservatively.
    Raises PeakExceedsBudget when the refined peak is over budget, and
    InvalidRange when the band touches the grid edge (the grid, not the
    design, is at fault then). Internal stability is the caller's to show.
    """
    if epsilon <= 0:
        raise InvalidRange("epsilon must be positive")
    if grid is None:
        grid = default_grid()
    res = hinf_norm(T, grid)
    if not res.finite:
        raise StabilityCheckFailed("closed loop has no finite peak")
    if res.norm > 1 + epsilon:
        raise PeakExceedsBudget(
            f"peak {res.norm:.9g} at omega {res.argmax_omega:.6g} exceeds {1 + epsilon:.6g}")
    logs = rf_log_abs_jomega(T, grid.omegas)
    over = logs > 0.0
    if not over.any():
        return Certificate(float(epsilon), res.norm, 1.0, 1.0, band_empty=True)
    first = int(np.argmax(over))
    last = len(over) - 1 - int(np.argmax(over[::-1]))
    if first == 0 or last == len(over) - 1:
        raise InvalidRange("amplification band touches the grid edge; widen the grid")
    w_lo = _bisect_crossing(T, float(grid.omegas[first - 1]), float(grid.omegas[first]), True)
    w_hi = _bisect_crossing(T, float(grid.omegas[last]), float(grid.omegas[last + 1]), False)
    return Certificate(float(epsilon), res.norm, w_lo, w_hi, band_empty=False)


def certify_controller(c: RationalFunction, m: int, epsilon: float,
                       grid: FrequencyGrid | None = None) -> Certificate:
    """Gang-of-four test of c on 1/s^m, then certify_closed_loop on its T."""
    if not internal_stability(plant(m), c).internally_stable:
        raise StabilityCheckFailed("controller does not internally stabilise 1/s^m")
    return certify_closed_loop(closed_loop(plant(m), c)[1], epsilon, grid)


# ----------------------------------------------------------------------
# parameter scan

def _scan_values() -> Tuple[Fraction, ...]:
    # quarter-decade descent 1 .. 1e-6; each point is the 12-significant-digit
    # decimal rounding of 10^(-k/4), kept rational so the pipeline stays exact
    out = []
    for k in range(25):
        out.append(Fraction(round(10.0 ** (-k / 4.0) * 10 ** 12), 10 ** 12))
    return tuple(out)


def band_grid(gamma_b) -> FrequencyGrid:
    """Certification grid wide enough to see a band that scales with gamma_b."""
    wmin = min(1e-4, float(gamma_b) * 1e-3)
    return FrequencyGrid(wmin, 1e4, 200)


@lru_cache(maxsize=8)
def search_parameters(m: int, epsilon: float,
                      grid: FrequencyGrid | None = None) -> Tuple[Fraction, Fraction]:
    """First (gamma_a, gamma_b) on the documented scan grid whose Youla T certifies.

    Scan order is lexicographic: gamma_a descends from 1 by quarter decades
    down to 1e-6, and for each gamma_a, gamma_b descends from gamma_a by the
    same steps. Each candidate's youla_closed_loop is certified directly;
    no controller is built, since Youla parametrisation already makes the
    loop internally stable. When no grid is passed, each candidate is
    certified on a band-aware grid (band_grid) so small-gamma bands are not
    missed below the default sweep floor.
    """
    if m % 4 != 0:
        raise InvalidRange("search_parameters requires m divisible by 4")
    if not 0 < epsilon <= 1:
        raise InvalidRange("need 0 < epsilon <= 1")
    vals = _scan_values()
    for ga in vals:
        for step in vals:
            gb = ga * step
            try:
                certify_closed_loop(youla_closed_loop(m, ga, gb), epsilon,
                                    grid if grid is not None else band_grid(gb))
            except (PeakExceedsBudget, InvalidRange):
                continue
            return ga, gb
    raise SearchExhausted(
        "no (gamma_a, gamma_b) certified on the quarter-decade scan down to 1e-6")


# ----------------------------------------------------------------------
# order lifting

def lift_order(c_bar: RationalFunction, ell: int, m: int) -> RationalFunction:
    """s^{m-ell} * c_bar: recover the order-m controller from the 4|ell case.

    Requires ell = 4*ceil(m/4). The loop transfer is unchanged (p*c is
    literally the same function), so the closed-loop T is preserved exactly;
    both that identity and internal stability for 1/s^m are verified before
    returning.
    """
    if m < 1 or ell != 4 * math.ceil(m / 4):
        raise InvalidRange("need ell = 4*ceil(m/4)")
    if not internal_stability(plant(ell), c_bar).internally_stable:
        raise StabilityCheckFailed("c_bar does not internally stabilise 1/s^ell")
    if ell == m:
        return c_bar
    lifted = c_bar * RationalFunction(_ONE, _S ** (ell - m))
    if not internal_stability(plant(m), lifted).internally_stable:
        raise StabilityCheckFailed("lifted controller failed for 1/s^m")
    if closed_loop(plant(m), lifted)[1] != closed_loop(plant(ell), c_bar)[1]:
        raise ArithmeticError("lifting changed the closed loop; construction bug")
    return lifted


# ----------------------------------------------------------------------
# scaled family

@dataclass(frozen=True)
class ControllerFamily:
    """Certified base controller c and the gammas of its members.

    Member k is c_k = gamma_k^{-m} c(gamma_k s) (member(k), built on
    demand). For the plant 1/s^m this gives p*c_k = (p*c)(gamma_k s), so
    T_k(s) = T(gamma_k s): every member check runs on the base T at scaled
    frequencies, and internal stability, invariant under s -> gamma s for
    gamma > 0, is the base's.
    """

    m: int
    base: RationalFunction
    gammas: tuple
    omega_bw: float
    base_certificate: Certificate

    def __post_init__(self):
        # member checks read the base T at gamma_k * omega in double precision;
        # compared exactly first, since float() of a Fraction past that range raises
        if not all(0 < g <= sys.float_info.max and float(g) > 0 for g in self.gammas):
            raise InvalidRange("gammas must be positive and within double range; reduce count")

    def __len__(self):
        return len(self.gammas)

    def member(self, k: int) -> RationalFunction:
        """The exact controller c_k = gamma_k^{-m} c(gamma_k s), k counted from 0."""
        g = self.gammas[k]
        return scale_frequency(self.base, g) / g ** self.m


def _member_log_abs(family: ControllerFamily, m: int, omegas):
    # member k's ln|T_k(j omega)|, read as the base ln|T(j gamma_k omega)|
    T = closed_loop(plant(m), family.base)[1]
    for g in family.gammas:
        yield rf_log_abs_jomega(T, omegas * float(g))


def scaled_family(c: RationalFunction, cert: Certificate, m: int, omega_bw: float,
                  count: int, grid: FrequencyGrid | None = None) -> ControllerFamily:
    """Build the geometric family off a certified controller.

    gamma_1 = omega_high/omega_bw and gamma_{k+1} = (omega_high/omega_low) *
    gamma_k, held as exact rationals, so adjacent amplification bands
    (omega_low/gamma_k, omega_high/gamma_k) share endpoints exactly and can
    never overlap. The base is Routh-tested once for internal stability,
    which every member inherits, and verify_bandwidth checks the members'
    |T_k| <= 1 at and above omega_bw on the base T at gamma_k * omega. A
    degenerate certificate (band_empty) gives ratio 1: all members coincide
    and the product bound is 1 everywhere. count is capped at 25: the
    gammas grow geometrically, and the sweeps read T at gamma_k * omega in
    double precision.
    """
    if count < 1:
        raise InvalidRange("count must be >= 1")
    if count > _FAMILY_CAP:
        raise InvalidRange(
            f"count capped at {_FAMILY_CAP}; the gammas grow geometrically and the "
            "family sweep grid must span every member's band in double precision")
    if omega_bw <= 0:
        raise InvalidRange("omega_bw must be positive")
    if not internal_stability(plant(m), c).internally_stable:
        raise StabilityCheckFailed("base controller fails internal stability")
    gamma = Fraction(cert.omega_high) / Fraction(omega_bw)
    ratio = Fraction(cert.omega_high) / Fraction(cert.omega_low)
    gammas = tuple(gamma * ratio ** k for k in range(count))
    fam = ControllerFamily(m, c, gammas, float(omega_bw), cert)
    verify_bandwidth(fam, grid)
    return fam


def verify_bandwidth(family: ControllerFamily, grid: FrequencyGrid | None = None) -> None:
    """Check |T_k(j omega)| <= 1 for every member at every grid omega >= omega_bw.

    T_k(j omega) is read as the base T at j gamma_k omega; 1e-12 of
    multiplicative slack absorbs the float sweep.
    """
    g = grid if grid is not None else default_grid()
    om = g.omegas[g.omegas >= family.omega_bw * (1 - 1e-12)]
    if om.size == 0:
        raise InvalidRange("grid has no samples at or above omega_bw")
    for k, logs in enumerate(_member_log_abs(family, family.m, om)):
        if (logs > 1e-12).any():
            w = float(om[int(np.argmax(logs))])
            raise BandwidthViolation(
                f"member {k + 1} has |T| > 1 at omega = {w:.6g} >= omega_bw")


def family_grid(family: ControllerFamily) -> FrequencyGrid:
    """Sweep grid covering every member's amplification band with margin."""
    cert = family.base_certificate
    if cert.band_empty or not family.gammas:
        return default_grid()
    gmax, gmin = float(max(family.gammas)), float(min(family.gammas))
    wmin = min(1e-4, cert.omega_low / gmax / 10)
    wmax = max(1e4, cert.omega_high / gmin * 10)
    return FrequencyGrid(wmin, wmax, 200)


def family_product_check(family: ControllerFamily, m: int,
                         grid: FrequencyGrid | None = None,
                         epsilon: float | None = None,
                         tol: float = 1e-6) -> Tuple[float, bool]:
    """(grid max of prod_k |T_k(j omega)|, max <= 1 + epsilon + tol).

    Each factor |T_k(j omega)| is the base |T(j gamma_k omega)|. The empty
    product is 1. The default grid comes from family_grid so no member's
    band falls outside the sweep.
    """
    if epsilon is None:
        epsilon = family.base_certificate.epsilon
    if grid is None:
        grid = family_grid(family)
    total = sum(_member_log_abs(family, m, grid.omegas), np.zeros(len(grid.omegas)))
    max_product = float(np.exp(np.float64(total.max())))
    return max_product, bool(max_product <= 1 + epsilon + tol)


# ----------------------------------------------------------------------
# JSON form

_FAMILY_SCHEMA = "family/2"
# the older form stores every member in full; it is still read, as the base
# recovered from member 1, and only when every stored member is its scaled copy
_FAMILY_SCHEMA_V1 = "family/1"


def family_to_json(family: ControllerFamily,
                   product_check: Tuple[float, bool] | None = None) -> dict:
    """The family/2 document: base controller, exact gammas, certificate."""
    cert = family.base_certificate
    doc = {
        "schema": _FAMILY_SCHEMA,
        "m": family.m,
        "epsilon": cert.epsilon,
        "omega_bw": family.omega_bw,
        "count": len(family),
        "gammas": [str(g) for g in family.gammas],
        "controller": family.base.to_json_dict(),
        "certificate": {
            "epsilon": cert.epsilon,
            "peak": cert.peak,
            "omega_low": cert.omega_low,
            "omega_high": cert.omega_high,
            "band_empty": cert.band_empty,
            "gamma_a": None if cert.gamma_a is None else str(cert.gamma_a),
            "gamma_b": None if cert.gamma_b is None else str(cert.gamma_b),
        },
    }
    if product_check is not None:
        doc["product_check"] = {"max_product": product_check[0], "pass": product_check[1]}
    return doc


def family_from_json(doc: dict) -> ControllerFamily:
    """Read a family/2 document, or a family/1 one whose members are exact scaled copies."""
    schema = doc.get("schema")
    if schema not in (_FAMILY_SCHEMA, _FAMILY_SCHEMA_V1):
        raise InvalidRange(f"unsupported family schema {schema!r}")
    cd = doc["certificate"]
    cert = Certificate(
        epsilon=float(cd["epsilon"]),
        peak=float(cd["peak"]),
        omega_low=float(cd["omega_low"]),
        omega_high=float(cd["omega_high"]),
        band_empty=bool(cd["band_empty"]),
        gamma_a=None if cd["gamma_a"] is None else Fraction(cd["gamma_a"]),
        gamma_b=None if cd["gamma_b"] is None else Fraction(cd["gamma_b"]),
    )
    m, omega_bw = int(doc["m"]), float(doc["omega_bw"])
    gammas = tuple(Fraction(t) for t in doc["gammas"])
    if schema == _FAMILY_SCHEMA:
        base = RationalFunction.from_json_dict(doc["controller"])
        return ControllerFamily(m, base, gammas, omega_bw, cert)
    members = [RationalFunction.from_json_dict(d) for d in doc["controllers"]]
    if not members or len(members) != len(gammas) or gammas[0] <= 0:
        raise InvalidRange("family/1 needs one stored controller per positive gamma")
    g = gammas[0]
    fam = ControllerFamily(m, scale_frequency(members[0], 1 / g) * g ** m, gammas, omega_bw, cert)
    if any(fam.member(k) != ck for k, ck in enumerate(members)):
        raise InvalidRange("family/1 members are not exact scaled copies of member 1")
    return fam
