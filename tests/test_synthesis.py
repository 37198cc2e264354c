"""Synthesis chain: coprime factors, certification, scan, scaled family."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from platoonctrl import synthesis
from platoonctrl.errors import (BandwidthViolation, InvalidRange,
                                PeakExceedsBudget, StabilityCheckFailed)
from platoonctrl.freq import FrequencyGrid, rf_log_abs_jomega
from platoonctrl.parsing import parse_rational
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import (RationalFunction, closed_loop, internal_stability,
                                one, s, scale_frequency)
from platoonctrl.synthesis import (Certificate, ControllerFamily, band_grid,
                                   candidate_controller, certify_closed_loop,
                                   certify_controller, family_from_json,
                                   family_grid, family_product_check,
                                   family_to_json, lift_order, plant, q1_shape,
                                   scaled_family, search_parameters,
                                   verify_bandwidth, youla_closed_loop,
                                   youla_coprime, _scan_values)

ONE = Polynomial([1])
S = Polynomial([0, 1])


# ---------------------------------------------------------------- coprime factors

def test_youla_m1_closed_form():
    d = youla_coprime(1)
    assert d.N == one / (one + s)
    assert d.M == s / (one + s)
    assert d.X == one / (one + s)
    assert d.Y == RationalFunction(Polynomial([2, 1]), ONE + S)


def test_youla_m4_binomial_split():
    d = youla_coprime(4)
    assert [int(c) for c in d.X.num.coeffs] == [1, 8, 28, 56]
    assert [int(c) for c in d.Y.num.coeffs] == [70, 56, 28, 8, 1]
    assert d.X.den == (ONE + S) ** 4


def test_bezout_exact_through_16():
    for m in range(1, 17):
        d = youla_coprime(m)
        assert d.N * d.X + d.M * d.Y == one, f"Bezout failed at m={m}"
        assert d.N * RationalFunction(S ** m, ONE) == d.M * one  # N s^m = M


def test_youla_validation():
    with pytest.raises(InvalidRange):
        youla_coprime(0)


# ---------------------------------------------------------------- Q1 and candidates

def test_q1_shape_values():
    q = q1_shape(1, 1, 1)
    assert q == one
    q2 = q1_shape(2, Fraction(1, 2), Fraction(1, 4))
    expected = RationalFunction(
        (ONE + S) ** 2,
        Polynomial([Fraction(1, 2), 1]) * Polynomial([Fraction(1, 4), 1]))
    assert q2 == expected
    with pytest.raises(InvalidRange):
        q1_shape(2, 0, 1)
    with pytest.raises(InvalidRange):
        q1_shape(2, 1, -1)


def test_candidate_m4_maclaurin():
    # T = 1 - s^4 (70 + 1/(ga*gb^3)) + O(s^5): four flat derivatives at DC,
    # then the band must pay for them
    ga, gb = Fraction(1, 10), Fraction(1, 100)
    c = candidate_controller(4, ga, gb)
    T = closed_loop(plant(4), c)[1]
    coeffs = T.maclaurin(5)
    assert coeffs[0] == 1
    assert coeffs[1] == coeffs[2] == coeffs[3] == 0
    assert coeffs[4] == -(70 + 1 / (ga * gb ** 3))


def test_candidate_requires_multiple_of_four():
    with pytest.raises(InvalidRange):
        candidate_controller(2, Fraction(1, 2), Fraction(1, 4))


def test_candidate_internally_stabilises(certified_m4):
    c, _ = certified_m4
    rep = internal_stability(plant(4), c)
    assert rep.internally_stable


# ---------------------------------------------------------------- certification

def test_certify_degenerate_band():
    cert = certify_controller(parse_rational("1"), 1, 0.1)
    assert cert.band_empty
    assert cert.omega_low == cert.omega_high == 1.0
    assert cert.peak == pytest.approx(1.0, abs=1e-12)


def test_certify_over_budget():
    with pytest.raises(PeakExceedsBudget):
        certify_controller(parse_rational("1+s"), 2, 0.1)


def test_certify_rejects_destabilising():
    with pytest.raises(StabilityCheckFailed):
        certify_controller(parse_rational("-1"), 2, 0.1)


def test_certificate_fields(certified_m4):
    _, cert = certified_m4
    assert cert.peak <= 1.1
    assert 0 < cert.omega_low < cert.omega_high
    assert not cert.band_empty
    assert cert.gamma_a is not None and cert.gamma_b is not None


def test_certified_band_is_conservative(certified_m4):
    import numpy as np
    c, cert = certified_m4
    T = closed_loop(plant(4), c)[1]
    edges = np.array([cert.omega_low, cert.omega_high])
    logs = rf_log_abs_jomega(T, edges)
    assert np.all(logs <= 1e-12), "band endpoints must sit on the |T| <= 1 side"


# ---------------------------------------------------------------- parameter scan

def test_scan_values_are_quarter_decades():
    vals = _scan_values()
    assert len(vals) == 25
    assert vals[0] == 1
    for k, v in enumerate(vals):
        assert float(v) == pytest.approx(10.0 ** (-k / 4.0), rel=1e-11)


def test_search_lands_on_scan_grid(certified_m4):
    _, cert = certified_m4
    vals = set(_scan_values())
    assert cert.gamma_a in vals
    assert cert.gamma_b / cert.gamma_a in vals


def test_search_winner_m4_pinned():
    assert search_parameters(4, 0.1) == (
        Fraction("44456985251/250000000000"),
        Fraction("702926656495390948551/125000000000000000000000"))


def test_scan_certifies_youla_T_like_the_controller_route():
    # the scan certifies T = N X (1 - M Q1) without building c; on a sample
    # of candidates (the first, a few misses, the one before the m = 4
    # winner, the winner, the one after) the controller route must agree
    vals = _scan_values()
    sample = [(0, 0), (0, 12), (2, 24), (3, 5), (3, 6), (3, 7)]

    def outcome(route):
        try:
            return route()
        except Exception as exc:  # the class is what is compared
            return type(exc)

    seen = set()
    for i, j in sample:
        ga, gb = vals[i], vals[i] * vals[j]
        grid = band_grid(gb)
        direct = outcome(lambda: certify_closed_loop(youla_closed_loop(4, ga, gb), 0.1, grid))
        via_c = outcome(lambda: certify_controller(candidate_controller(4, ga, gb), 4, 0.1, grid))
        assert direct == via_c, f"candidate ({i}, {j})"
        seen.add(direct if isinstance(direct, type) else Certificate)
    assert seen == {Certificate, PeakExceedsBudget}


def test_search_builds_no_controller(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the scan must not build or Routh-test a controller")

    monkeypatch.setattr(synthesis, "candidate_controller", forbidden)
    monkeypatch.setattr(synthesis, "internal_stability", forbidden)
    monkeypatch.setattr(synthesis, "closed_loop", forbidden)
    assert search_parameters.__wrapped__(4, 0.1) == search_parameters(4, 0.1)


def test_search_validation():
    with pytest.raises(InvalidRange):
        search_parameters(3, 0.1)
    with pytest.raises(InvalidRange):
        search_parameters(4, 0.0)


def test_band_grid_widens_for_small_gamma():
    g = band_grid(Fraction(1, 10 ** 6))
    assert g.omega_min <= 1e-9
    assert band_grid(Fraction(1, 2)).omega_min == 1e-4


# ---------------------------------------------------------------- lifting

def test_lift_preserves_T_exactly(certified_m4):
    c4, _ = certified_m4
    T4 = closed_loop(plant(4), c4)[1]
    for m in (2, 3):
        cm = lift_order(c4, 4, m)
        assert closed_loop(plant(m), cm)[1] == T4
        assert internal_stability(plant(m), cm).internally_stable


def test_lift_validation(certified_m4):
    c4, _ = certified_m4
    with pytest.raises(InvalidRange):
        lift_order(c4, 8, 2)
    assert lift_order(c4, 4, 4) is c4


# ---------------------------------------------------------------- scaled family

def test_family_band_adjacency(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 10)
    assert len(fam) == 10
    wl, wh = Fraction(cert.omega_low), Fraction(cert.omega_high)
    assert fam.gammas[0] == wh  # omega_bw = 1
    for k in range(9):
        # band of member k is (wl/g_k, wh/g_k); the next band's top edge
        # must exactly meet this band's bottom edge
        assert wh / fam.gammas[k + 1] == wl / fam.gammas[k]


def test_family_members_scaled_correctly(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 3)
    T = closed_loop(plant(4), c)[1]
    for k, g in enumerate(fam.gammas):
        ck = fam.member(k)
        assert closed_loop(plant(4), ck)[1] == scale_frequency(T, g), \
            "T_k(s) must equal T(gamma_k s)"
        assert internal_stability(plant(4), ck).internally_stable


def test_family_routh_tests_the_base_once(certified_m4, monkeypatch):
    c, cert = certified_m4
    calls = []
    real = synthesis.internal_stability
    monkeypatch.setattr(synthesis, "internal_stability",
                        lambda p, ck: calls.append(ck) or real(p, ck))
    fam = scaled_family(c, cert, 4, 1.0, 10)
    assert calls == [c] and fam.base is c


def test_family_bandwidth_holds(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 10)
    verify_bandwidth(fam)  # does not raise


def test_family_bandwidth_violation_detected(certified_m4):
    c, cert = certified_m4
    bad = ControllerFamily(
        4,
        c,
        (Fraction(cert.omega_high),),
        omega_bw=float(cert.omega_high) * 0.5,  # band now pokes above bw
        base_certificate=cert)
    with pytest.raises(BandwidthViolation):
        verify_bandwidth(bad)


def test_family_product_within_budget(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 10)
    max_product, ok = family_product_check(fam, 4)
    assert ok
    assert max_product <= 1.1 + 1e-6


def test_homogeneous_family_product_compounds():
    # ten copies of the same PD loop: the peaks stack multiplicatively
    c = parse_rational("1+s")
    cert = Certificate(0.5, 1.4678898250138706, 0.0, 0.0, band_empty=True)
    fam = ControllerFamily(2, c, (Fraction(1),) * 10, 1.0, cert)
    max_product, ok = family_product_check(fam, 2, epsilon=0.1)
    assert max_product >= 2 ** 5
    assert not ok


def test_family_count_cap(certified_m4):
    c, cert = certified_m4
    with pytest.raises(InvalidRange):
        scaled_family(c, cert, 4, 1.0, 26)
    with pytest.raises(InvalidRange):
        scaled_family(c, cert, 4, 1.0, 0)


def test_degenerate_certificate_family():
    c = parse_rational("1")
    cert = certify_controller(c, 1, 0.1)
    fam = scaled_family(c, cert, 1, 1.0, 5)
    assert len({fam.member(k) for k in range(5)}) == 1, "ratio 1 means identical members"
    max_product, ok = family_product_check(fam, 1)
    assert ok and max_product <= 1.0 + 1e-9


def test_family_rejects_gammas_outside_double_range(certified_m4):
    c, cert = certified_m4
    for bad in (Fraction(10) ** 400, Fraction(1, 10 ** 400), Fraction(0), Fraction(-1)):
        with pytest.raises(InvalidRange):
            ControllerFamily(4, c, (Fraction(1), bad), 1.0, cert)


def test_family_grid_covers_bands(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 10)
    g = family_grid(fam)
    lowest_band_edge = cert.omega_low / float(max(fam.gammas))
    assert g.omega_min <= lowest_band_edge
    assert g.omega_max >= 1e4


# ---------------------------------------------------------------- JSON form

def test_family_json_round_trip(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 4)
    doc = family_to_json(fam, (1.05, True))
    text = json.dumps(doc, sort_keys=True)
    fam2 = family_from_json(json.loads(text))
    assert fam2.base == fam.base
    assert fam2.gammas == fam.gammas
    assert fam2.base_certificate == fam.base_certificate


def test_family_json_schema_guard(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 2)
    doc = family_to_json(fam)
    doc["schema"] = "family/9"
    with pytest.raises(InvalidRange):
        family_from_json(doc)
