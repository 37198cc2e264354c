"""Frequency grids, the polyval magnitude oracle the grid oracles read, and
the peak-gain computation.

The frozen oracles here were derived by hand:
  peak of (s+1)/(s^2+s+1) is sqrt((2+sqrt(3))/sqrt(3)) at omega = sqrt(sqrt(3)-1)
(set d/dw of |T(jw)|^2 to zero; w^4 + 2w^2 - 2 = 0).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platoonctrl.errors import InvalidRange, StabilityCheckFailed
from platoonctrl.freq import LogGrid, default_grid, exceeds_unity, grid_samples, hinf_norm
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import RationalFunction, internal_stability, one, plant, s
from platoonctrl.synthesis import _scan_values, band_grid, youla_closed_loop

from oracles import abs_squared_at, hinf_by_grid, log_abs_polyval, logspace_samples

PEAK_ORACLE = 1.4678898250138706      # sqrt((2+sqrt(3))/sqrt(3))
ARGMAX_ORACLE = 0.8555996771673521    # sqrt(sqrt(3)-1)


# ---------------------------------------------------------------- grid

def test_grid_construction():
    g = LogGrid(1e-2, 1e2, 10)
    assert (g[0], g[len(g) - 1]) == (1e-2, 1e2)
    assert len(g) == 41
    assert np.all(np.diff(np.log10(list(g))) > 0)


def test_grid_wider_than_double_range():
    # omega_max / omega_min overflows; the decade count must not
    g = LogGrid(1e-300, 1e300, 1)
    assert len(g) == 601
    assert (g[0], g[600]) == (1e-300, 1e300)
    assert np.all(np.isfinite(list(g)))


@pytest.mark.parametrize("omega_min, omega_max, ppd", [
    (1.0, 10.0, 10 ** 400),          # the int itself past double range
    (1e-300, 1e300, 10 ** 306),      # 600 decades times it overflows to inf
], ids=["ppd-1e400", "count-past-double-range"])
def test_grid_size_past_double_range(omega_min, omega_max, ppd):
    with pytest.raises(InvalidRange):
        grid_samples(omega_min, omega_max, ppd)
    with pytest.raises(InvalidRange):
        LogGrid(omega_min, omega_max, ppd)


_LOG_GRIDS = [(1e-4, 1e4, 200), (1e-2, 1e2, 10), (1e-300, 1e300, 1), (1e-300, 1e300, 7),
              (0.5, 2.0, 3), (1.0, 10.0, 1), (1.0, math.nextafter(1.0, 2.0), 5)]


@pytest.mark.parametrize("omega_min, omega_max, ppd", _LOG_GRIDS)
def test_log_grid_is_libms_recurrence(omega_min, omega_max, ppd):
    # sample k is libm's 10.0 ** (k*step + start), both endpoints exact;
    # np.logspace's SIMD power may round a sample the other way, never further
    g = LogGrid(omega_min, omega_max, ppd)
    n = grid_samples(omega_min, omega_max, ppd)
    start = math.log10(omega_min)
    step = (math.log10(omega_max) - start) / (n - 1)
    want = [omega_min] + [10.0 ** (k * step + start) for k in range(1, n - 1)] + [omega_max]
    assert len(g) == n and list(g) == want == [g[k] for k in range(n)]
    for k in (-1, n):
        with pytest.raises(IndexError):
            g[k]
    numpy_samples = logspace_samples(g)
    assert np.all(np.abs(np.array(want) - numpy_samples) <= np.spacing(numpy_samples))


def test_log_grid_within_an_ulp_of_numpy_on_every_band_grid():
    vals = _scan_values()
    for gb in {a * b for a in vals for b in vals}:
        g = band_grid(gb)
        numpy_samples = logspace_samples(g)
        assert np.all(np.abs(np.array(list(g)) - numpy_samples) <= np.spacing(numpy_samples))


def test_grid_validation():
    with pytest.raises(InvalidRange):
        LogGrid(1.0, 1.0, 10)
    with pytest.raises(InvalidRange):
        LogGrid(10.0, 1.0, 10)
    with pytest.raises(InvalidRange):
        LogGrid(-1.0, 1.0, 10)
    with pytest.raises(InvalidRange):
        LogGrid(1e-2, 1e2, 0)


def test_log_grid_validation():
    # an infinite end, and a sample count past double range
    with pytest.raises(InvalidRange):
        LogGrid(1.0, math.inf, 10)
    with pytest.raises(InvalidRange):
        LogGrid(1e-300, 1e300, 10 ** 306)


def test_default_grid():
    g = default_grid()
    assert isinstance(g, LogGrid) and len(g) == 1601
    assert g.omega_min == 1e-4 and g.omega_max == 1e4
    assert g.points_per_decade == 200
    assert default_grid() is g, "default grid is shared"
    assert band_grid(None) is g and band_grid(Fraction(1, 2)) is g


# ---------------------------------------------------------------- log-magnitude oracle
# np.polyval on oracles._scaled_descending rows, the float route the grid
# oracles read every magnitude from

def _log_abs(f, omegas):
    return log_abs_polyval(f.num.coeffs, f.den.coeffs, np.asarray(omegas, dtype=float))


def test_engine_matches_direct_eval():
    f = RationalFunction(Polynomial([1, 2]), Polynomial([3, 1, 1]))
    om = np.logspace(-2, 2, 101)
    direct = np.array([abs(f(1j * w)) for w in om])
    engine = np.exp(_log_abs(f, om))
    assert np.max(np.abs(engine - direct) / direct) < 1e-12


def test_engine_survives_extreme_coefficients():
    gam = Fraction(10) ** 25
    f = RationalFunction(Polynomial([1]), Polynomial([gam * gam, 2 * gam, 1]))
    logs = _log_abs(f, np.array([1e-3, 1.0, 1e3]))
    assert np.all(np.isfinite(logs))
    # |1/(s+gam)^2| at omega << gam is about gam^-2
    assert logs[1] == pytest.approx(-2 * 25 * math.log(10), rel=1e-9)


def test_abs_at_unit_frequency():
    T = RationalFunction(Polynomial([1, 1]), Polynomial([1, 1, 1]))
    val = math.exp(_log_abs(T, np.array([1.0]))[0])
    assert abs(val - math.sqrt(2)) < 1e-12


# ---------------------------------------------------------------- peak gain

def test_hinf_frozen_oracle():
    T = RationalFunction(Polynomial([1, 1]), Polynomial([1, 1, 1]))
    res = hinf_norm(T)
    assert res.norm == pytest.approx(PEAK_ORACLE, rel=1e-9)
    assert res.argmax_omega == pytest.approx(ARGMAX_ORACLE, rel=1e-6)
    # cross-check the frozen constants themselves
    assert PEAK_ORACLE == pytest.approx(math.sqrt((2 + math.sqrt(3)) / math.sqrt(3)), abs=1e-15)
    assert ARGMAX_ORACLE == pytest.approx(math.sqrt(math.sqrt(3) - 1), abs=1e-15)


def test_hinf_frozen_bits(certified_m4):
    # (norm, argmax omega, lower); each pair of bounds is the two floats
    # either side of the exact peak, whose argmax T and T^2 share
    T = RationalFunction(Polynomial([1, 1]), Polynomial([1, 1, 1]))
    assert tuple(hinf_norm(T)) == (1.4678898250138708, 0.8555996771648054, 1.4678898250138706)
    assert tuple(hinf_norm(T * T)) == (2.154700538379252, 0.8555996771648054,
                                       2.1547005383792515)
    _, cert = certified_m4
    T4 = youla_closed_loop(4, cert.gamma_a, cert.gamma_b)
    assert tuple(hinf_norm(T4)) == (1.0706257410015758, 0.02620170555477798, 1.0706257410015756)


def test_hinf_endpoint_candidates():
    # a peak at omega = 0 or in the limit is exact, and proven with no margin
    assert tuple(hinf_norm(one / (one + s))) == (1.0, 0.0, 1.0)
    assert tuple(hinf_norm(s / (one + s))) == (1.0, math.inf, 1.0)


def test_hinf_power_identity():
    T = RationalFunction(Polynomial([1, 1]), Polynomial([1, 1, 1]))
    sq = hinf_norm(T * T)
    assert sq.norm == pytest.approx(PEAK_ORACLE ** 2, rel=1e-6)


def test_hinf_unstable_and_improper_flagged():
    # no finite supremum: raised, not returned as a value to test
    for f in (one / (s - one), (s * s + 1) / (s + one)):
        with pytest.raises(StabilityCheckFailed, match="closed loop has no finite peak"):
            hinf_norm(f)
    assert tuple(hinf_norm(RationalFunction(Polynomial([]), Polynomial([1, 1])))) == \
        (0.0, 0.0, 0.0)


def test_hinf_constant():
    res = hinf_norm(RationalFunction(Polynomial([Fraction(3, 4)]), Polynomial([1])))
    assert res.norm == pytest.approx(0.75, abs=1e-15)


_POSITIVE = st.builds(Fraction, st.integers(1, 100), st.integers(10, 100))


@st.composite
def _stable_loops(draw):
    # a Hurwitz denominator of first- and second-order factors with
    # coefficients in [0.1, 10], and any numerator of no higher degree
    den = Polynomial([1])
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            den = den * Polynomial([draw(_POSITIVE), 1])
        else:
            den = den * Polynomial([draw(_POSITIVE), draw(_POSITIVE), 1])
    num = Polynomial([Fraction(draw(st.integers(-20, 20)), 4)
                      for _ in range(draw(st.integers(1, den.degree + 1)))])
    return RationalFunction(num + Fraction(1, 8), den)


@settings(max_examples=150, deadline=None, database=None)
@given(T=_stable_loops())
# the float oracle reads 1.0956868994602702 here, 1.1e-12 above norm: its
# |D(jw)| sums terms about 1000 times its value, and rounds high
@example(T=RationalFunction(Polynomial([Fraction(1, 8)]), Polynomial(
    [Fraction(171, 2), Fraction(439, 238), Fraction(4405, 238), Fraction(24, 119), 1])))
def test_hinf_encloses_the_grid_peak(T):
    # the float oracle's peak is a rounded grid sample, so |T| at its argmax
    # is read again exactly before norm is asked to enclose it
    res = hinf_norm(T)
    peak, w = hinf_by_grid(T)
    assert res.lower <= res.norm <= res.lower * (1 + 2 ** -40)
    assert abs_squared_at(T, w) <= (Fraction(res.norm) * (1 + Fraction(1, 10 ** 12))) ** 2
    assert res.lower >= peak * (1 - 1e-9)


def test_hinf_finds_a_resonance_far_below_the_grid():
    # T = c(1+s)/(s^2+cs+c), c = 1e-400: poles near +-j 1e-200, where
    # |T| = 1e200; the default grid starts at 1e-4 and reads 1.0
    T = internal_stability(plant(2), RationalFunction(Polynomial([Fraction(1, 10 ** 400)] * 2),
                                                      Polynomial([1])))
    res = hinf_norm(T)
    assert res.lower <= 1e200 <= res.norm
    assert res.norm == pytest.approx(1e200, rel=1e-12)
    assert res.argmax_omega == pytest.approx(1e-200, rel=1e-12)
    assert hinf_by_grid(T)[0] == 1.0


def test_hinf_touching_one_inside_the_axis():
    # |D|^2 - |N|^2 = x (1 - x)^2 in x = w^2: |T| = 1 at w = 0 and w = 1 and
    # below 1 elsewhere, so the bound U = 1 touches the peak and only the
    # next float up is proven
    T = RationalFunction(Polynomial([1, 0, 3]), Polynomial([1, 1, 3, 1]))
    assert tuple(hinf_norm(T)) == (1.0000000000000002, 0.0, 1.0)
    assert not exceeds_unity(T)


def test_exceeds_unity_is_exact():
    assert not exceeds_unity(one / (one + s))
    assert not exceeds_unity((one - s) / (one + s))
    assert exceeds_unity((one + s) / (s * s + s + one))
    # |T|^2 - 1 = x (2c - x)/B for c = 1e400: above 1 by about 1e-400
    c = Fraction(10 ** 400)
    T = RationalFunction(Polynomial([c, c]), Polynomial([c, c, 1]))
    res = hinf_norm(T)
    assert res.lower == 1.0 and res.norm == 1.0000000000000002 and exceeds_unity(T)
