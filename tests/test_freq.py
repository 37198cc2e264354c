"""Frequency sweep engine and the peak-gain computation.

The frozen oracles here were derived by hand:
  peak of (s+1)/(s^2+s+1) is sqrt((2+sqrt(3))/sqrt(3)) at omega = sqrt(sqrt(3)-1)
(set d/dw of |T(jw)|^2 to zero; w^4 + 2w^2 - 2 = 0).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from platoonctrl.errors import InvalidRange
from platoonctrl.freq import (FrequencyGrid, default_grid, hinf_norm,
                              rf_abs_jomega, rf_log_abs_jomega)
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import RationalFunction, one, s

PEAK_ORACLE = 1.4678898250138706      # sqrt((2+sqrt(3))/sqrt(3))
ARGMAX_ORACLE = 0.8555996771673521    # sqrt(sqrt(3)-1)


# ---------------------------------------------------------------- grid

def test_grid_construction():
    g = FrequencyGrid(1e-2, 1e2, 10)
    assert g.omegas[0] == pytest.approx(1e-2, rel=1e-15)
    assert g.omegas[-1] == pytest.approx(1e2, rel=1e-15)
    assert len(g) == 41
    assert np.all(np.diff(np.log10(g.omegas)) > 0)


def test_grid_validation():
    with pytest.raises(InvalidRange):
        FrequencyGrid(1.0, 1.0, 10)
    with pytest.raises(InvalidRange):
        FrequencyGrid(10.0, 1.0, 10)
    with pytest.raises(InvalidRange):
        FrequencyGrid(-1.0, 1.0, 10)
    with pytest.raises(InvalidRange):
        FrequencyGrid(1e-2, 1e2, 0)


def test_grid_equality_and_default():
    assert FrequencyGrid(1e-1, 1e1, 5) == FrequencyGrid(1e-1, 1e1, 5)
    assert hash(FrequencyGrid(1e-1, 1e1, 5)) == hash(FrequencyGrid(1e-1, 1e1, 5))
    g = default_grid()
    assert g.omega_min == 1e-4 and g.omega_max == 1e4
    assert g.points_per_decade == 200
    assert default_grid() is g, "default grid is shared"


# ---------------------------------------------------------------- log-magnitude engine

def test_engine_matches_direct_eval():
    f = RationalFunction(Polynomial([1, 2]), Polynomial([3, 1, 1]))
    om = np.logspace(-2, 2, 101)
    direct = np.array([abs(f(1j * w)) for w in om])
    engine = np.exp(rf_log_abs_jomega(f, om))
    assert np.max(np.abs(engine - direct) / direct) < 1e-12


def test_engine_survives_extreme_coefficients():
    gam = Fraction(10) ** 25
    f = RationalFunction(Polynomial([1]), Polynomial([gam * gam, 2 * gam, 1]))
    logs = rf_log_abs_jomega(f, np.array([1e-3, 1.0, 1e3]))
    assert np.all(np.isfinite(logs))
    # |1/(s+gam)^2| at omega << gam is about gam^-2
    assert logs[1] == pytest.approx(-2 * 25 * math.log(10), rel=1e-9)


def test_abs_at_unit_frequency():
    T = RationalFunction(Polynomial([1, 1]), Polynomial([1, 1, 1]))
    val = float(rf_abs_jomega(T, np.array([1.0]))[0])
    assert abs(val - math.sqrt(2)) < 1e-12


# ---------------------------------------------------------------- peak gain

def test_hinf_frozen_oracle():
    T = RationalFunction(Polynomial([1, 1]), Polynomial([1, 1, 1]))
    res = hinf_norm(T)
    assert res.finite
    assert res.norm == pytest.approx(PEAK_ORACLE, rel=1e-9)
    assert res.argmax_omega == pytest.approx(ARGMAX_ORACLE, rel=1e-6)
    # cross-check the frozen constants themselves
    assert PEAK_ORACLE == pytest.approx(math.sqrt((2 + math.sqrt(3)) / math.sqrt(3)), abs=1e-15)
    assert ARGMAX_ORACLE == pytest.approx(math.sqrt(math.sqrt(3) - 1), abs=1e-15)


def test_hinf_endpoint_candidates():
    assert hinf_norm(one / (one + s)).norm == pytest.approx(1.0, abs=1e-12)
    assert hinf_norm(one / (one + s)).argmax_omega == 0.0
    res = hinf_norm(s / (one + s))
    assert res.norm == pytest.approx(1.0, abs=1e-12)
    assert math.isinf(res.argmax_omega)


def test_hinf_power_identity():
    T = RationalFunction(Polynomial([1, 1]), Polynomial([1, 1, 1]))
    sq = hinf_norm(T * T)
    assert sq.norm == pytest.approx(PEAK_ORACLE ** 2, rel=1e-6)


def test_hinf_unstable_and_improper_flagged():
    res = hinf_norm(one / (s - one))
    assert not res.finite and math.isinf(res.norm)
    res2 = hinf_norm((s * s + 1) / (s + one))
    assert not res2.finite
    res3 = hinf_norm(RationalFunction(Polynomial([]), Polynomial([1, 1])))
    assert res3.finite and res3.norm == 0.0


def test_hinf_constant():
    res = hinf_norm(RationalFunction(Polynomial([Fraction(3, 4)]), Polynomial([1])))
    assert res.norm == pytest.approx(0.75, abs=1e-15)
