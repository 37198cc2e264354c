"""Controller synthesis for the integrator-chain plant 1/s^m.

Pipeline: shape the free Youla parameter so the complementary sensitivity
dips below 1 early, certify the peak with no grid and the amplification
band on a grid, then fan the certified design out into a geometrically
frequency-scaled family whose amplification bands are pairwise disjoint.
Everything is exact rational arithmetic: each certificate decision is the
sign of an integer polynomial in x = omega^2, |T(j omega)|^2 = A(x)/B(x).
Floats appear only as the grid's samples and the band edges, each read
exactly where a decision is made, and as the reported peak, rounded up; no
magnitude is evaluated in floating point.

The Youla design for 1/s^m has closed forms. Split the binomial expansion
X + s^m Y = (1+s)^{2m} at index m and let D1 = (s+gamma_a)(s+gamma_b)^{m-1}.
The Youla parameter Q = -X (s+1)^m / D1 (over the coprime factors
N = 1/(s+1)^m, M = s^m/(s+1)^m) gives the controller
c = X (D1 - s^m) / (Y D1 + X) and the closed loop
T = X (D1 - s^m) / ((s+1)^{2m} D1), each built as one polynomial ratio.
That T is internally stable for positive gammas by construction, so the
scan certifies its |T|^2 = A/B, built from the Youla factors with no T
built, and that certificate is the design's; synthesize builds the
winner's controller and tests the one loop it ships. A scaled member
c_k = gamma_k^{-m} c(gamma_k s) has T_k(s) = T(gamma_k s), so a family is
stored as one base controller plus its gammas, and the disjoint-band
argument decides its bandwidth and product with no sweep.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .errors import (BandwidthViolation, InvalidRange, PeakExceedsBudget,
                     SearchExhausted, StabilityCheckFailed, ZeroDenominator)
from .freq import (LogGrid, _abs_squared, _at, _enclose, _gain_squared, _level, _plus,
                   _x_divided_out, default_grid, hinf_norm)
from .poly import Polynomial, _convolve, _fraction, _positive_roots
from .ratfun import (RationalFunction, StableLoop, hurwitz_denominator, internal_stability,
                     plant)

_S = Polynomial([0, 1])
_ONE = Polynomial([1])
_ONE_RF = RationalFunction(_ONE, _ONE)

_FAMILY_CAP = 25


# ----------------------------------------------------------------------
# Youla design

def _youla_parts(m: int, gamma_a, gamma_b) -> Tuple[Polynomial, Polynomial, Polynomial]:
    """X, Y and D1 of the Youla design for 1/s^m.

    X = sum_{k<m} C(2m,k) s^k and Y = sum_{l=m..2m} C(2m,l) s^{l-m} split
    the binomial expansion X + s^m Y = (1+s)^{2m} at index m, and
    D1 = (s+gamma_a)(s+gamma_b)^{m-1} is the band-shaping denominator.
    """
    if m < 1:
        raise InvalidRange("m must be >= 1")
    ga, gb = Fraction(gamma_a), Fraction(gamma_b)
    if ga <= 0 or gb <= 0:
        raise InvalidRange("gamma_a and gamma_b must be positive")
    X = Polynomial([math.comb(2 * m, k) for k in range(m)])
    Y = Polynomial([math.comb(2 * m, l) for l in range(m, 2 * m + 1)])
    return X, Y, Polynomial([ga, 1]) * Polynomial([gb, 1]) ** (m - 1)


def youla_closed_loop(m: int, gamma_a, gamma_b) -> StableLoop:
    """T = X (D1 - s^m) / ((s+1)^{2m} D1): the Youla candidate's closed loop, no controller built.

    Its denominator's roots are -1, -gamma_a and -gamma_b, and _youla_parts
    rejects gammas that are not positive, so this T belongs to an internally
    stable loop by construction and is returned as a StableLoop.
    """
    X, _, D1 = _youla_parts(m, gamma_a, gamma_b)
    return StableLoop(X * (D1 - _S ** m), (_ONE + _S) ** (2 * m) * D1)


def candidate_controller(m: int, gamma_a, gamma_b) -> RationalFunction:
    """The Youla candidate c = X (D1 - s^m) / (Y D1 + X), whose T is youla_closed_loop's.

    Restricted to m divisible by 4 (the reduction case; lift_order covers the
    rest). synthesize tests the loop it ships and compares its T with
    youla_closed_loop.
    """
    if m % 4 != 0:
        raise InvalidRange("candidate_controller requires m divisible by 4")
    X, Y, D1 = _youla_parts(m, gamma_a, gamma_b)
    return RationalFunction(X * (D1 - _S ** m), Y * D1 + X)


# ----------------------------------------------------------------------
# certification

@dataclass(frozen=True)
class Certificate:
    """Evidence for a closed loop: peak budget and amplification band.

    |T| <= 1 holds exactly at every grid sample at or below omega_low and
    at or above omega_high, and at both edges of a nonempty band; peak is
    the proven upper bound of freq._enclose, hinf_norm's core (synthesize
    builds the m = 1 certificate from its closed form instead). band_empty
    marks the degenerate case of no grid sample with |T| > 1, with
    omega_low = omega_high = 1 by convention so downstream gamma ratios
    degenerate to 1 instead of dividing by zero. gamma_a and gamma_b are
    set by search_parameters on the winning candidate's certificate.
    """

    epsilon: float
    peak: float
    omega_low: float
    omega_high: float
    band_empty: bool = False
    gamma_a: Optional[Fraction] = None
    gamma_b: Optional[Fraction] = None


def _sign_at(cs, w: float) -> int:
    # the sign of cs at x = w^2, w read exactly
    v = _at(cs, Fraction(w) ** 2)
    return (v > 0) - (v < 0)


def _place(q, root, x: Fraction) -> int:
    """-1, 0 or 1 as x lies below, on or above the root of q that root = (lo, hi, sign) isolates."""
    lo, hi, sign = root
    if lo == hi:
        return (x > lo) - (x < lo)
    if x <= lo:
        return -1
    if x >= hi:
        return 1
    v = _at(q, x)
    return 0 if not v else (-1 if (v > 0) == (sign > 0) else 1)


def _over_samples(Q, grid: LogGrid) -> Optional[Tuple[int, int]]:
    """(first, last): the first and last sample index with Q(w^2) > 0, None if no sample has it.

    Q is an integer list, ascending in x = w^2, with Q[0] != 0. Its
    positive roots, isolated once (poly._positive_roots), cut the axis into
    open stretches on each of which Q keeps one sign. A binary search over
    the sample indices counts the samples below each root, placing a
    sample inside the root's interval by the sign there of q, Q's
    squarefree part, whose sign changes at the root; a sample on a root has
    Q = 0. Q's sign at a stretch's first sample is its sign on the stretch.
    """
    q, roots = _positive_roots(Q)
    n, k, stretches = len(grid), 0, []
    for root in roots:
        start, top = k, n
        while k < top:
            mid = (k + top) // 2
            if _place(q, root, Fraction(grid[mid]) ** 2) < 0:
                k = mid + 1
            else:
                top = mid
        stretches.append((start, k))
        if k < n and _place(q, root, Fraction(grid[k]) ** 2) == 0:
            k += 1
    stretches.append((k, n))
    over = [(a, b) for a, b in stretches if a < b and _sign_at(Q, grid[a]) > 0]
    return (over[0][0], over[-1][1] - 1) if over else None


def _band_samples(A, B, grid: LogGrid):
    """(Q, over): Q = A - B divided by its power of x, and the first and last
    sample index where Q > 0, that is |T| > 1, None if there is none."""
    Q = _x_divided_out(_plus(A, B, -1))
    return Q, (_over_samples(Q, grid) if Q else None)


def _bisect_crossing(Q, a: float, b: float, keep_low: bool) -> float:
    # |T| = 1 crossing between a and b, Q = A - B being T's; returns the
    # endpoint kept on the |T| <= 1 side (Q <= 0, read exactly), tightened
    # to 1e-10 relative width, or as far as doubles between a and b allow
    while (b - a) > 1e-10 * b:
        mid = math.sqrt(a * b)
        if not a < mid < b:  # a * b past double range
            mid = math.sqrt(a) * math.sqrt(b)
            if not a < mid < b:
                break
        if (_sign_at(Q, mid) <= 0) == keep_low:
            a = mid
        else:
            b = mid
    return a if keep_low else b


def _certify(A, B, epsilon: float, grid: LogGrid) -> Certificate:
    # certify_closed_loop on |T|^2 = A/B, A and B not necessarily coprime
    if _level(A, B, 1 + epsilon) < 0:
        raise PeakExceedsBudget(f"|T| exceeds {1 + epsilon:.6g}: "
                                f"(1 + epsilon)^2 B - A changes sign")
    peak, w, _ = _enclose(A, B)
    if peak > 1 + epsilon:
        raise PeakExceedsBudget(f"peak {peak:.9g} at omega {w:.6g} exceeds {1 + epsilon:.6g}")
    Q, over = _band_samples(A, B, grid)
    if over is None:
        return Certificate(float(epsilon), peak, 1.0, 1.0, band_empty=True)
    first, last = over
    if first == 0 or last == len(grid) - 1:
        raise InvalidRange("amplification band touches the grid edge; widen the grid")
    w_lo = _bisect_crossing(Q, grid[first - 1], grid[first], True)
    w_hi = _bisect_crossing(Q, grid[last], grid[last + 1], False)
    return Certificate(float(epsilon), peak, w_lo, w_hi, band_empty=False)


def certify_closed_loop(T: RationalFunction, epsilon: float,
                        grid: LogGrid | None = None) -> Certificate:
    """Certify peak |T| <= 1 + epsilon and extract the amplification band.

    Every decision is the sign of an integer polynomial in x = omega^2,
    with |T(j omega)|^2 = A(x)/B(x) (freq._gain_squared), formed once. The
    budget: PeakExceedsBudget when freq._level proves U^2 B - A negative
    somewhere, U the float 1 + epsilon read exactly, and otherwise when the
    proven peak (freq._enclose, as in hinf_norm) exceeds 1 + epsilon. The
    band: omega_low sits below the first grid sample where A - B > 0 and
    omega_high above the last, each bisected between two samples while
    staying on the A - B <= 0 side, so the band is placed conservatively
    with respect to the grid. InvalidRange when the first or last sample
    has A - B > 0 (the grid, not the design, is at fault then) or epsilon
    is not positive and finite; StabilityCheckFailed when T is unstable or
    improper. The default grid is default_grid().
    """
    if not 0 < epsilon < math.inf:  # the budget reads 1 + epsilon as an exact rational
        raise InvalidRange("epsilon must be positive and finite")
    if not (T.is_proper and hurwitz_denominator(T)):
        raise StabilityCheckFailed("closed loop has no finite peak")
    return _certify(*_gain_squared(T), epsilon, default_grid() if grid is None else grid)


# ----------------------------------------------------------------------
# parameter scan

def _scan_values() -> Tuple[Fraction, ...]:
    # quarter-decade descent 1 .. 1e-6; each point is the 12-significant-digit
    # decimal rounding of 10^(-k/4), kept rational so the pipeline stays exact
    out = []
    for k in range(25):
        out.append(Fraction(round(10.0 ** (-k / 4.0) * 10 ** 12), 10 ** 12))
    return tuple(out)


def band_grid(gamma_b) -> LogGrid:
    """Certification grid wide enough to see a band that scales with gamma_b.

    The default sweep, widened down to gamma_b / 1000 when that lies below
    its 1e-4; otherwise, and for gamma_b None, default_grid() itself.
    """
    grid = default_grid()
    if gamma_b is None or float(gamma_b) * 1e-3 >= grid.omega_min:
        return grid
    return LogGrid(float(gamma_b) * 1e-3, grid.omega_max, grid.points_per_decade)


def _linear_power(p: int, q: int, e: int):
    # (p + q s)^e, ascending
    return [math.comb(e, k) * p ** (e - k) * q ** k for k in range(e + 1)]


@lru_cache(maxsize=None)
def _youla_fixed(m: int):
    # |X(j omega)|^2 and (1 + x)^(2m), ascending in x = omega^2
    return _abs_squared([math.comb(2 * m, k) for k in range(m)]), _linear_power(1, 1, 2 * m)


def _youla_gain_squared(m: int, gamma_a: Fraction, gamma_b: Fraction):
    """(A, B), integer lists ascending in x = omega^2, with |T(j omega)|^2 = A(x)/B(x)
    for T = youla_closed_loop(m, gamma_a, gamma_b), built from its factors.

    With gamma_a = pa/qa, gamma_b = pb/qb and K = qa qb^(m-1), K D1 is
    (qa s + pa)(qb s + pb)^(m-1), so A = |X|^2 |K D1 - K s^m|^2 and
    B = (1 + x)^(2m) (qa^2 x + pa^2)(qb^2 x + pb^2)^(m-1), each K^2 times
    its factor of |T|^2. No gcd is taken: a factor T's canonical form
    cancels divides its Hurwitz denominator, so it is positive on x >= 0
    and changes no sign the certificate reads.
    """
    X2, rise = _youla_fixed(m)
    pa, qa, pb, qb = gamma_a.numerator, gamma_a.denominator, gamma_b.numerator, gamma_b.denominator
    KD1 = _convolve([pa, qa], _linear_power(pb, qb, m - 1))
    KD1.pop()  # its s^m coefficient is K
    return (_convolve(X2, _abs_squared(KD1)),
            _convolve(rise, _convolve([pa * pa, qa * qa], _linear_power(pb * pb, qb * qb, m - 1))))


@lru_cache(maxsize=8)
def search_parameters(m: int, epsilon: float) -> Certificate:
    """Certificate of the first (gamma_a, gamma_b) on the scan grid whose Youla T certifies.

    Scan order is lexicographic: gamma_a descends from 1 by quarter decades
    down to 1e-6, and for each gamma_a, gamma_b descends from gamma_a by the
    same steps. Each candidate is certified once, as certify_closed_loop
    does, on |T|^2 = A/B from _youla_gain_squared, on a band-aware grid
    (band_grid(gamma_b)) so small-gamma bands are not missed below the
    default sweep floor. Neither T nor a controller is built: the budget
    test and the peak's enclosure read the same factored A and B, and Youla
    parametrisation already makes the loop internally stable. The winner's
    certificate comes back with gamma_a and gamma_b set; it certifies
    candidate_controller(m, gamma_a, gamma_b) too, whose T is this T.
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
                cert = _certify(*_youla_gain_squared(m, ga, gb), epsilon, band_grid(gb))
            except (PeakExceedsBudget, InvalidRange):
                continue
            return replace(cert, gamma_a=ga, gamma_b=gb)
    raise SearchExhausted(
        "no (gamma_a, gamma_b) certified on the quarter-decade scan down to 1e-6")


# ----------------------------------------------------------------------
# order lifting

def lift_order(c_bar: RationalFunction, ell: int, m: int) -> RationalFunction:
    """c_bar / s^{ell-m}: recover the order-m controller from the 4|ell case.

    Requires ell = 4*ceil(m/4). The loop transfer is unchanged (p*c is
    literally the same function), so the closed-loop T is preserved exactly;
    synthesize tests the lifted loop.
    """
    if m < 1 or ell != 4 * math.ceil(m / 4):
        raise InvalidRange("need ell = 4*ceil(m/4)")
    if ell == m:
        return c_bar
    return c_bar * RationalFunction(_ONE, _S ** (ell - m))


@dataclass(frozen=True)
class Design:
    """The shipped base design: controller and its certificate.

    ell is the order the Youla design was built for, 1 for the first-order
    plant's unit gain.
    """

    ell: int
    controller: RationalFunction
    certificate: Certificate


def synthesize(m: int, epsilon: float) -> Design:
    """The certified base design for 1/s^m, its one shipped loop tested once.

    m = 1 is closed with unit gain, T = 1/(s+1), and its certificate comes
    from the closed form: |T(j omega)|^2 = 1/(1 + omega^2) <= 1, with
    equality only at omega = 0, so the peak is exactly 1 <= 1 + epsilon and
    the band is empty. Otherwise the scan certifies the Youla T for
    ell = 4*ceil(m/4), and the winner's controller, lifted to 1/s^m, is
    built. That loop gets the one internal_stability test:
    StabilityCheckFailed unless it is internally stable, ArithmeticError
    unless its T is the certified T. The 1/s^ell loop is stable by Youla
    parametrisation and is not shipped, so it is not tested.
    """
    if m < 1:
        raise InvalidRange("m must be >= 1")
    if m == 1:
        if epsilon <= 0:
            raise InvalidRange("epsilon must be positive")
        ell, c = 1, _ONE_RF
        cert = Certificate(float(epsilon), 1.0, 1.0, 1.0, band_empty=True)
        certified = RationalFunction(_ONE, _ONE + _S)
    else:
        ell = 4 * math.ceil(m / 4)
        cert = search_parameters(ell, epsilon)
        c = lift_order(candidate_controller(ell, cert.gamma_a, cert.gamma_b), ell, m)
        certified = youla_closed_loop(ell, cert.gamma_a, cert.gamma_b)
    if internal_stability(plant(m), c) != certified:
        raise ArithmeticError("the shipped loop's T is not the certified T; construction bug")
    return Design(ell, c, cert)


# ----------------------------------------------------------------------
# scaled family

@dataclass(frozen=True)
class ControllerFamily:
    """Certified base controller c and the gammas of its members.

    Member k is c_k = gamma_k^{-m} c(gamma_k s), never built: no verdict
    needs it. For the plant 1/s^m, T_k(s) = T(gamma_k s): member k amplifies
    only on the base band divided by gamma_k, and its internal stability,
    invariant under s -> gamma s for gamma > 0, is the base's.
    """

    m: int
    base: RationalFunction
    gammas: tuple
    omega_bw: float
    base_certificate: Certificate

    def __post_init__(self):
        if not self.gammas or not all(g > 0 for g in self.gammas):
            raise InvalidRange("need gammas, each positive")
        if not 0 < self.omega_bw < math.inf:
            raise InvalidRange("omega_bw must be finite and positive")
        cert = self.base_certificate
        # family_product_check reads the band edges as Fractions, which need finite floats
        if not all(0 < v < math.inf for v in (cert.epsilon, cert.omega_low, cert.omega_high)):
            raise InvalidRange("certificate epsilon and band edges must be finite and positive")

    def __len__(self):
        return len(self.gammas)


def scaled_family(c: RationalFunction, cert: Certificate, m: int, omega_bw: float,
                  count: int) -> ControllerFamily:
    """Build the geometric family off a certified controller.

    gamma_1 = omega_high/omega_bw and gamma_{k+1} = (omega_high/omega_low) *
    gamma_k, held as exact rationals, so adjacent bands share endpoints and
    family_product_check's comparisons hold with equality; band_empty gives
    ratio 1, all members alike. count, input from outside the program, is
    capped at 25: the k-th gamma has about k times the band ratio's digits.
    """
    if count > _FAMILY_CAP:
        raise InvalidRange(f"count capped at {_FAMILY_CAP}; the k-th gamma has "
                           "about k times the band ratio's digits")
    if omega_bw <= 0:
        raise InvalidRange("omega_bw must be positive")
    gamma = Fraction(cert.omega_high) / Fraction(omega_bw)
    ratio = Fraction(cert.omega_high) / Fraction(cert.omega_low)
    gammas = tuple(gamma * ratio ** k for k in range(count))
    return ControllerFamily(m, c, gammas, float(omega_bw), cert)


def check_certificate(T: RationalFunction, cert: Certificate) -> Tuple[float, bool]:
    """(peak, ok): T's proven peak bound, and whether cert's claims hold for it.

    peak is hinf_norm's. The band is tested on the grid synth certified on,
    band_grid(gamma_b): ok means peak <= 1 + epsilon and, read exactly as
    the sign of A - B (see certify_closed_loop), |T| <= 1 at every sample
    at or below omega_low and at or above omega_high, that is, the first
    and last samples with |T| > 1 lie strictly inside the band. The edges
    are not recomputed: bisection endpoints can differ in their last bits
    between libm builds.
    """
    peak = hinf_norm(T).norm
    grid = band_grid(cert.gamma_b)
    over = _band_samples(*_gain_squared(T), grid)[1]
    inside = over is None or cert.omega_low < grid[over[0]] and grid[over[1]] < cert.omega_high
    return peak, bool(peak <= 1 + cert.epsilon and inside)


def family_product_check(family: ControllerFamily) -> Tuple[float, bool]:
    """The disjoint-band argument, in exact Fraction comparisons; nothing is evaluated.

    The certificate states peak |T| <= 1 + epsilon, and |T| <= 1 at or below omega_low
    and at or above omega_high. Sort the gammas. If gamma_1 omega_bw >= omega_high,
    every omega >= omega_bw has gamma_k omega >= omega_high, so no |T_k(j omega)| =
    |T(j gamma_k omega)| exceeds 1 above the bandwidth; else BandwidthViolation. If
    gamma_{k+1} omega_low >= gamma_k omega_high for each k, member k's open band
    (omega_low/gamma_k, omega_high/gamma_k) meets no other's, so at every omega at most
    one factor exceeds 1 and the product is at most peak (>= |T(0)| = 1) for every count
    and ordering: (peak, True). Else (inf, False). band_empty (omega_low = omega_high)
    needs no special case.
    """
    cert = family.base_certificate
    low, high = Fraction(cert.omega_low), Fraction(cert.omega_high)
    gammas = sorted(family.gammas)
    if gammas[0] * Fraction(family.omega_bw) < high:
        raise BandwidthViolation(
            f"member {family.gammas.index(gammas[0]) + 1}'s band reaches above omega_bw")
    if any(g1 * low < g0 * high for g0, g1 in zip(gammas, gammas[1:])):
        return math.inf, False
    return cert.peak, True


# ----------------------------------------------------------------------
# JSON form

_FAMILY_SCHEMA = "family/3"
# family/2 differs only in product_check, a swept value there, which is not read
_FAMILY_SCHEMA_V2 = "family/2"


def family_to_json(family: ControllerFamily, product_check: Tuple[float, bool]) -> dict:
    """The family/3 document: base controller, exact gammas, certificate, proven product bound."""
    cert = family.base_certificate
    return {
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
        "product_check": {"max_product": product_check[0], "pass": product_check[1]},
    }


def family_from_json(doc) -> ControllerFamily:
    """Read a family/3 or family/2 document: one base controller and its gammas.

    A malformed document raises InvalidRange: an unknown schema, family/1
    among them, a missing key, a value of the wrong type, an unparsable or
    zero-denominator coefficient, a gamma or coefficient whose decimal
    exponent passes poly._fraction's cap, no gammas or a count other than
    their number, an omega_bw, epsilon or band edge that is not finite and
    positive, an m outside 1 .. 1 + deg(controller numerator), past which no
    base can stabilise 1/s^m, or a certificate gamma_b that is not positive
    or past double range.
    """
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema not in (_FAMILY_SCHEMA, _FAMILY_SCHEMA_V2):
        raise InvalidRange(f"unsupported family schema {schema!r}")
    try:
        cd = doc["certificate"]
        cert = Certificate(
            epsilon=float(cd["epsilon"]),
            peak=float(cd["peak"]),
            omega_low=float(cd["omega_low"]),
            omega_high=float(cd["omega_high"]),
            band_empty=bool(cd["band_empty"]),
            gamma_a=None if cd["gamma_a"] is None else _fraction(cd["gamma_a"]),
            gamma_b=None if cd["gamma_b"] is None else _fraction(cd["gamma_b"]),
        )
        if not isinstance(doc["gammas"], list) or doc["count"] != len(doc["gammas"]):
            raise InvalidRange("count must be the number of gammas")
        m, omega_bw = doc["m"], float(doc["omega_bw"])
        gammas = tuple(map(_fraction, doc["gammas"]))
        base = RationalFunction.from_json_dict(doc["controller"])
    except (KeyError, TypeError, ValueError, ArithmeticError, ZeroDenominator) as exc:
        raise InvalidRange(f"malformed family document: {type(exc).__name__}: {exc}") from exc
    # past it s^m d_c + n_c lacks s^(m-1), and 1/s^m would outgrow the document
    if type(m) is not int or not 1 <= m <= base.num.degree + 1:
        raise InvalidRange("need an integer m from 1 to 1 + the controller's numerator degree")
    # family-check certifies again on band_grid(gamma_b), which reads it as a float
    if cert.gamma_b is not None and not 0 < cert.gamma_b <= sys.float_info.max:
        raise InvalidRange("certificate gamma_b must be positive and in double range")
    return ControllerFamily(m, base, gammas, omega_bw, cert)
