"""Synthesis chain: Youla closed forms, certification, scan, scaled family."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonctrl import synthesis
from platoonctrl.errors import (BandwidthViolation, InvalidRange,
                                PeakExceedsBudget, StabilityCheckFailed)
from platoonctrl.freq import LogGrid, _gain_squared, _plus, hinf_norm
from platoonctrl.parsing import parse_rational
from platoonctrl.poly import Polynomial, _convolve, _positive_roots
from platoonctrl.ratfun import (RationalFunction, internal_stability, one, s,
                                scale_frequency)
from platoonctrl.synthesis import (Certificate, ControllerFamily, band_grid,
                                   candidate_controller, certify_closed_loop,
                                   check_certificate, family_from_json,
                                   family_product_check, family_to_json,
                                   lift_order, plant, scaled_family,
                                   search_parameters, synthesize,
                                   youla_closed_loop, _scan_values)

from oracles import (abs_squared_at, certify_by_grid, closed_loop, controller_by_factors,
                     family_member, family_sweep, float_over_samples, maclaurin, q1_shape,
                     log_abs_polyval, youla_coprime, youla_T_by_factors)

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
    coeffs = maclaurin(T, 5)
    assert coeffs[0] == 1
    assert coeffs[1] == coeffs[2] == coeffs[3] == 0
    assert coeffs[4] == -(70 + 1 / (ga * gb ** 3))


def test_candidate_requires_multiple_of_four():
    with pytest.raises(InvalidRange):
        candidate_controller(2, Fraction(1, 2), Fraction(1, 4))


def test_candidate_internally_stabilises(certified_m4):
    c, cert = certified_m4
    assert internal_stability(plant(4), c) == youla_closed_loop(4, cert.gamma_a, cert.gamma_b)


_POSITIVE = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


@settings(max_examples=8, deadline=None, database=None)
@given(m=st.sampled_from([4, 8]), ga=_POSITIVE, gb=_POSITIVE)
def test_closed_forms_match_the_factor_route(m, ga, gb):
    # c = X (D1 - s^m) / (Y D1 + X) and T = X (D1 - s^m) / ((s+1)^(2m) D1)
    # against (X + M Q)/(Y - N Q) and N X (1 - M Q1) in canonical arithmetic;
    # the internal stability test of c must give that T
    c, T = candidate_controller(m, ga, gb), youla_closed_loop(m, ga, gb)
    assert c == controller_by_factors(m, ga, gb)
    assert T == youla_T_by_factors(m, ga, gb)
    assert internal_stability(plant(m), c) == T


def test_closed_forms_validation():
    for bad in ((0, 1), (1, -1)):
        with pytest.raises(InvalidRange):
            youla_closed_loop(4, *bad)
        with pytest.raises(InvalidRange):
            candidate_controller(4, *bad)
    with pytest.raises(InvalidRange):
        youla_closed_loop(0, 1, 1)


# ---------------------------------------------------------------- certification

def _plant_T(c, m):
    # the generic route, kept as the oracle: T = pc/(1+pc) from closed_loop
    return closed_loop(plant(m), c)[1]


def test_certify_degenerate_band():
    cert = certify_closed_loop(_plant_T(parse_rational("1"), 1), 0.1)
    assert cert.band_empty
    assert cert.omega_low == cert.omega_high == 1.0
    assert cert.peak == pytest.approx(1.0, abs=1e-12)


def test_certify_over_budget():
    with pytest.raises(PeakExceedsBudget):
        certify_closed_loop(_plant_T(parse_rational("1+s"), 2), 0.1)


def test_certify_checks_its_inputs_before_the_budget():
    # an unstable or improper T has no finite peak, however far over budget
    # its |T| reads; epsilon must be a finite positive number
    T = _plant_T(parse_rational("1+s"), 2)
    for bad in (parse_rational("10/(s-1)"), parse_rational("1+s")):
        with pytest.raises(StabilityCheckFailed):
            certify_closed_loop(bad, 0.1)
    for eps in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(InvalidRange):
            certify_closed_loop(T, eps)


def test_certify_rejects_destabilising():
    with pytest.raises(StabilityCheckFailed):
        certify_closed_loop(_plant_T(parse_rational("-1"), 2), 0.1)


@pytest.mark.parametrize("g, wmin, wmax, ppd", [
    (Fraction(10) ** 170, 1e-180, 1e-160, 200),   # a * b underflows in the bisection
    (Fraction(10) ** -170, 1e160, 1e180, 200),    # a * b overflows
    (Fraction(10) ** 300, 1e-307, 1e-296, 20),
], ids=["1e-170", "1e170", "1e-300"])
def test_certify_a_band_far_from_one(certified_m4, g, wmin, wmax, ppd):
    # T(g s) has the band of T divided by g; the float engine read NaN on
    # these coefficients, and a bisection midpoint sqrt(a * b) left double
    # range, so each edge is bisected on sqrt(a) sqrt(b) there
    _, cert = certified_m4
    T = scale_frequency(youla_closed_loop(4, cert.gamma_a, cert.gamma_b), g)
    far = certify_closed_loop(T, 0.1, LogGrid(wmin, wmax, ppd))
    assert far.peak == cert.peak and not far.band_empty
    assert far.omega_low * float(g) == pytest.approx(cert.omega_low, rel=1e-9)
    assert far.omega_high * float(g) == pytest.approx(cert.omega_high, rel=1e-9)
    assert abs_squared_at(T, far.omega_low) <= 1 and abs_squared_at(T, far.omega_high) <= 1


def test_certificate_fields(certified_m4):
    _, cert = certified_m4
    assert cert.peak <= 1.1
    assert 0 < cert.omega_low < cert.omega_high
    assert not cert.band_empty
    assert cert.gamma_a is not None and cert.gamma_b is not None


def test_certificate_frozen_bits(certified_m4):
    # recorded before the bisection scaled T once; the certificate must not move
    _, cert = certified_m4
    assert (cert.peak, cert.omega_low, cert.omega_high) == \
        (1.0706257410015758, 0.0031991851737649033, 0.7227070670157537)
    again = certify_closed_loop(youla_closed_loop(4, cert.gamma_a, cert.gamma_b), 0.1)
    assert (again.peak, again.omega_low, again.omega_high) == \
        (1.0706257410015758, 0.0031991851737410777, 0.7227070670123232)


def test_certified_band_is_conservative(certified_m4):
    import numpy as np
    c, cert = certified_m4
    T = closed_loop(plant(4), c)[1]
    edges = np.array([cert.omega_low, cert.omega_high])
    logs = log_abs_polyval(T.num.coeffs, T.den.coeffs, edges)
    assert np.all(logs <= 1e-12), "band endpoints must sit on the |T| <= 1 side"


def test_m4_winner_exceeds_one_inside_its_band(certified_m4):
    # |T(j 0.601)| = 1.059 for the m = 4 winner: the band synth certifies on
    # band_grid, (0.0032, 0.7227), holds that excursion
    _, cert = certified_m4
    T = youla_closed_loop(4, cert.gamma_a, cert.gamma_b)
    assert log_abs_polyval(T.num.coeffs, T.den.coeffs, [0.601])[0] > math.log(1.05)
    assert cert.omega_low < 0.601 < cert.omega_high


@pytest.mark.xfail(strict=True, reason="certify_closed_loop tests |T| <= 1 only at grid "
                   "samples, if exactly: at one per decade it returns the band "
                   "(0.0032, 0.0776) and misses |T| = 1.059 at omega 0.601")
def test_sparse_grid_certificate_keeps_every_excursion_in_its_band(certified_m4):
    # a three-member family on the false band passes family_product_check
    # with bound 1.0706 while the members' product reaches 1.134
    _, cert = certified_m4
    T = youla_closed_loop(4, cert.gamma_a, cert.gamma_b)
    try:
        sparse = certify_closed_loop(T, 0.1, LogGrid(1e-4, 1e4, 1))
    except (PeakExceedsBudget, InvalidRange):
        return
    assert sparse.omega_low < 0.601 < sparse.omega_high


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
    cert = search_parameters(4, 0.1)
    assert (cert.gamma_a, cert.gamma_b) == (
        Fraction("44456985251/250000000000"),
        Fraction("702926656495390948551/125000000000000000000000"))


def test_scan_certifies_youla_T_like_the_controller_route():
    # the scan certifies T = N X (1 - M Q1) without building c; on a sample
    # of candidates (the first, a few misses, the one before the m = 4
    # winner, the winner, the one after) the controller route must agree,
    # and the scan's own certificate must be the controller route's
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
        via_c = outcome(lambda: certify_closed_loop(
            _plant_T(candidate_controller(4, ga, gb), 4), 0.1, grid))
        assert direct == via_c, f"candidate ({i}, {j})"
        seen.add(direct if isinstance(direct, type) else Certificate)
        if (i, j) == (3, 6):
            assert search_parameters(4, 0.1) == replace(via_c, gamma_a=ga, gamma_b=gb)
    assert seen == {Certificate, PeakExceedsBudget}


@pytest.mark.parametrize("eps", [0.1, 0.0706254])
def test_grid_rejection_never_changes_a_verdict(eps):
    # certify_closed_loop rejects on a proven sign change of U^2 B - A
    # before enclosing the peak. That proves the peak above U = 1 + eps, so
    # on every m = 4 candidate up to three past the winner it must reject
    # exactly when hinf_norm's proven bound is over budget. At eps 0.0706254
    # the eps = 0.1 winner has every grid sample within budget and only its
    # peak (1.07062574) over it, so the count must find that narrow excess.
    vals = _scan_values()
    win = search_parameters(4, eps)
    last = 25 * vals.index(win.gamma_a) + vals.index(win.gamma_b / win.gamma_a) + 3
    seen = set()
    for k in range(last + 1):
        ga = vals[k // 25]
        gb = ga * vals[k % 25]
        T, grid = youla_closed_loop(4, ga, gb), band_grid(gb)
        try:
            certify_closed_loop(T, eps, grid)
            rejected = False
        except PeakExceedsBudget:
            rejected = True
        except InvalidRange:  # the band touches the grid edge: the peak fits
            rejected = False
        assert rejected == (hinf_norm(T).norm > 1 + eps), f"candidate {k}"
        seen.add(rejected)
    assert seen == {True, False}


def _candidate(k):
    # the k-th scan candidate, counted from 0 in scan order
    vals = _scan_values()
    return vals[k // 25], vals[k // 25] * vals[k % 25]


def _through_m4_winner():
    # every m = 4 candidate up to three past the winner
    win = search_parameters(4, 0.1)
    vals = _scan_values()
    return range(25 * vals.index(win.gamma_a) + vals.index(win.gamma_b / win.gamma_a) + 4)


def _outcome(route):
    try:
        return route()
    except (PeakExceedsBudget, InvalidRange) as exc:  # the class is what is compared
        return type(exc)


# m = 4 up to three past the winner; every twelfth m = 8 candidate, with the
# winner (7, 7) and the one after it, which the float edge rule chose
_BAND_CASES = [(4, k) for k in range(85)] + [(8, k) for k in sorted({*range(0, 183, 12), 182, 183})]


@pytest.mark.parametrize("m, k", _BAND_CASES)
def test_exact_band_samples_agree_with_each_sample_read_exactly(m, k):
    # the factored A/B is the closed loop's |T|^2; the first and last sample
    # with A - B > 0, from one root isolation and a binary search, are the
    # ones a per-sample exact evaluation finds. The float oracle reads every
    # sample the same way wherever its ln|T| lies past 1e-12 of 0, and so
    # finds the same first and last sample unless one of its own or of the
    # exact ones lies within that; T(0) = 1, so the samples below the band
    # often do
    ga, gb = _candidate(k)
    T = youla_closed_loop(m, ga, gb)
    A, B = synthesis._youla_gain_squared(m, ga, gb)
    A2, B2 = _gain_squared(T)
    assert _convolve(A, B2) == _convolve(A2, B)
    Q = _plus(A, B, -1)
    Q = Q[next(i for i, c in enumerate(Q) if c):]
    grid = band_grid(gb)
    over = np.array([abs_squared_at(T, w) > 1 for w in grid])
    exact = synthesis._over_samples(Q, grid)
    ends = np.flatnonzero(over)
    assert exact == ((ends[0], ends[-1]) if len(ends) else None)
    by_float, logs = float_over_samples(T, list(grid))
    clear = np.abs(logs) > 1e-12
    assert np.array_equal((logs > 0)[clear], over[clear])
    for end in (0, 1):
        if exact and by_float and clear[exact[end]] and clear[by_float[end]]:
            assert exact[end] == by_float[end]


def test_m4_certificates_agree_with_the_float_route():
    # every m = 4 candidate up to three past the winner gets the verdict the
    # float grid route gave, and the winner the same certificate, bit for bit
    seen = set()
    for k in _through_m4_winner():
        ga, gb = _candidate(k)
        T = youla_closed_loop(4, ga, gb)
        grid = band_grid(gb)
        exact = _outcome(lambda: certify_closed_loop(T, 0.1, grid))
        by_float = _outcome(lambda: certify_by_grid(T, 0.1, grid))
        assert exact == by_float, f"candidate {k}"
        seen.add(exact if isinstance(exact, type) else Certificate)
    assert seen == {Certificate, PeakExceedsBudget}


@pytest.mark.parametrize("ell, gamma_b, old_low", [
    # the float edge rule rejected this candidate: its first sample's
    # ln|T| read 7.1e-15, and exactly |T| < 1 there
    (8, "31622776600299481/100000000000000000000", None),
    # same winner; the float route put omega_low at 4.2658e-7
    (12, "177827941/10000000000000", 4.265795187567607e-07),
    # the float edge rule rejected this candidate at 2.8e-14
    (16, "1405853313/2500000000000000", None),
])
def test_exact_scan_winners_past_m4(ell, gamma_b, old_low):
    cert = search_parameters(ell, 0.1)
    assert cert.gamma_b == Fraction(gamma_b)
    T = youla_closed_loop(ell, cert.gamma_a, cert.gamma_b)
    grid = band_grid(cert.gamma_b)
    assert abs_squared_at(T, grid[0]) <= 1 and abs_squared_at(T, grid[len(grid) - 1]) <= 1
    if old_low is not None:
        between = [w for w in grid if old_low <= w <= cert.omega_low]
        assert between and all(abs_squared_at(T, w) < 1 for w in between)
    fam = scaled_family(T, cert, ell, 1.0, 3)
    max_product, ok = family_product_check(fam)
    assert ok and max_product == cert.peak
    swept, above_bw = family_sweep(fam, T)
    assert swept <= cert.peak, swept
    assert above_bw <= 1e-12, above_bw


@pytest.mark.parametrize("ell", [4, 8, 12, 16])
def test_shipped_band_holds_between_the_samples(ell):
    # the grid decides the band only at its samples; for the four designs
    # synth ships, A - B, negative near 0 and at infinity, has no root below
    # omega_low or above omega_high, so |T| <= 1 holds there everywhere
    cert = search_parameters(ell, 0.1)
    A, B = synthesis._youla_gain_squared(ell, cert.gamma_a, cert.gamma_b)
    Q = _plus(A, B, -1)
    Q = Q[next(i for i, c in enumerate(Q) if c):]
    assert Q[0] < 0 and Q[-1] < 0
    q, roots = _positive_roots(Q)
    low, high = Fraction(cert.omega_low) ** 2, Fraction(cert.omega_high) ** 2
    assert roots and all(synthesis._place(q, r, low) < 0 < synthesis._place(q, r, high)
                         for r in roots)


def test_search_builds_no_controller(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the scan must not build or Routh-test a controller")

    monkeypatch.setattr(synthesis, "candidate_controller", forbidden)
    monkeypatch.setattr(synthesis, "internal_stability", forbidden)
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
        assert internal_stability(plant(m), cm) == T4


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
        ck = family_member(fam, k)
        assert closed_loop(plant(4), ck)[1] == scale_frequency(T, g), \
            "T_k(s) must equal T(gamma_k s)"
        assert internal_stability(plant(4), ck) == scale_frequency(T, g)


def test_family_routh_tests_the_base_once(certified_m4, monkeypatch):
    # synthesize tests the one loop it ships; scaled_family, whose members
    # inherit that verdict, tests nothing more
    c, cert = certified_m4
    calls = []
    real = synthesis.internal_stability
    monkeypatch.setattr(synthesis, "internal_stability",
                        lambda p, ck: calls.append(ck) or real(p, ck))
    design = synthesize(4, 0.1)
    fam = scaled_family(design.controller, design.certificate, 4, 1.0, 10)
    assert calls == [c] and fam.base is design.controller
    assert design.certificate == cert


@pytest.mark.parametrize("m, ell", [(1, 1), (2, 4), (3, 4), (4, 4)])
def test_synthesize_ships_the_certified_youla_loop(m, ell):
    design = synthesize(m, 0.1)
    assert design.ell == ell
    if m > 1:
        cert = design.certificate
        assert _plant_T(design.controller, m) == youla_closed_loop(ell, cert.gamma_a, cert.gamma_b)
        assert design.controller == lift_order(
            candidate_controller(ell, cert.gamma_a, cert.gamma_b), ell, m)


@pytest.mark.parametrize("eps", [1e-9, 0.1, 1.0, 5.0])
def test_synthesize_m1_certificate_is_the_closed_form(eps):
    # certify_closed_loop's grid route gives T = 1/(s+1) the same fields
    cert = synthesize(1, eps).certificate
    assert cert == Certificate(eps, 1.0, 1.0, 1.0, band_empty=True)
    assert cert == certify_closed_loop(_plant_T(one, 1), eps)


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_synthesize_m1_rejects_nonpositive_eps(eps):
    with pytest.raises(InvalidRange):
        synthesize(1, eps)


def test_synthesize_raises_unless_the_shipped_T_is_the_youla_T(monkeypatch):
    search_parameters(4, 0.1)  # cache the real scan; the patch must not reach it
    monkeypatch.setattr(synthesis, "youla_closed_loop", lambda m, ga, gb: one)
    with pytest.raises(ArithmeticError):
        synthesize(3, 0.1)


def test_family_bandwidth_holds(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 10)
    family_product_check(fam)  # does not raise


def test_family_bandwidth_violation_detected(certified_m4):
    c, cert = certified_m4
    bad = ControllerFamily(
        4,
        c,
        (Fraction(cert.omega_high),),
        omega_bw=float(cert.omega_high) * 0.5,  # band now pokes above bw
        base_certificate=cert)
    with pytest.raises(BandwidthViolation):
        family_product_check(bad)


def test_family_product_within_budget(certified_m4):
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 10)
    max_product, ok = family_product_check(fam)
    assert ok
    assert max_product == cert.peak <= 1.1


def test_family_overlapping_bands_fail(certified_m4):
    # a third gamma a hair below the adjacent one puts two bands on top of
    # each other; in any order the comparisons see it, and give no bound
    c, cert = certified_m4
    fam = scaled_family(c, cert, 4, 1.0, 3)
    g = fam.gammas
    near = g[2] * Fraction(999, 1000)
    for gammas in ((g[0], g[1], near), (near, g[0], g[1])):
        assert family_product_check(replace(fam, gammas=gammas)) == (math.inf, False)
    assert family_product_check(replace(fam, gammas=(g[2], g[0], g[1]))) == (cert.peak, True)


def test_check_certificate_recomputes_the_peak(certified_m4):
    c, cert = certified_m4
    T = _plant_T(c, 4)
    assert check_certificate(T, cert) == (cert.peak, True)
    # a sample inside the band, where |T| > 1, now falls above omega_high
    narrowed = replace(cert, omega_high=cert.omega_high / 2)
    assert check_certificate(T, narrowed) == (cert.peak, False)
    assert check_certificate(T, replace(cert, epsilon=0.05)) == (cert.peak, False)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
def test_family_sweep_agrees_with_the_proven_bound(m):
    # the float sweep of every member, kept as the oracle, never exceeds the
    # bound the comparisons prove, and finds no member above 1 past omega_bw
    design = synthesize(m, 0.1)
    T = _plant_T(design.controller, m)
    for count in ((3,) if m == 8 else (3, 10, 25)):
        fam = scaled_family(design.controller, design.certificate, m, 1.0, count)
        max_product, ok = family_product_check(fam)
        assert ok and max_product == design.certificate.peak
        swept, above_bw = family_sweep(fam, T)
        assert swept <= max_product * (1 + 1e-12), f"m={m} count={count}: {swept!r}"
        assert above_bw <= 1e-12, f"m={m} count={count}: {above_bw!r}"


def test_m8_scan_runs_no_remainder_sequence(monkeypatch, call_counts):
    # the scan builds each candidate's |T|^2 from the Youla factors with no
    # gcd; the winner's loop and controller have gcds proven 1 modulo a
    # prime, and the plant 1/s^8 has a constant side, so no pseudo-division
    # runs; a fresh cache makes the scan run here even when an earlier test
    # ran it
    monkeypatch.setattr(synthesis, "search_parameters",
                        lru_cache(maxsize=8)(search_parameters.__wrapped__))
    counts = call_counts("_pseudo_divmod", "poly_gcd")
    synthesize(8, 0.1)
    assert counts["_pseudo_divmod"] == 0 and counts["poly_gcd"] > 0


def test_m12_certifies_and_its_family_agrees_with_the_sweep():
    design = synthesize(12, 0.1)
    cert = design.certificate
    assert (cert.gamma_a, cert.gamma_b) == (Fraction("177827941/100000000000"),
                                            Fraction("177827941/10000000000000"))
    fam = scaled_family(design.controller, cert, 12, 1.0, 3)
    max_product, ok = family_product_check(fam)
    assert ok and max_product == cert.peak
    swept, above_bw = family_sweep(fam, _plant_T(design.controller, 12))
    assert swept <= cert.peak + 1e-6, swept
    assert above_bw <= 1e-12, above_bw


def test_homogeneous_family_product_compounds():
    # ten copies of the same PD loop: the peaks stack multiplicatively;
    # |T(j omega)| <= 1 from omega = sqrt(2) on, so omega_bw = 2 holds.
    # The hand-built band_empty certificate (omega_low = omega_high = 1 by
    # convention) claims |T| <= 1 everywhere, which is false, so the
    # certificate check rejects it before the comparisons could rest on it
    c = parse_rational("1+s")
    cert = Certificate(0.1, 1.4678898250138706, 1.0, 1.0, band_empty=True)
    fam = ControllerFamily(2, c, (Fraction(1),) * 10, 2.0, cert)
    peak, ok = check_certificate(_plant_T(c, 2), cert)
    assert peak == pytest.approx(1.4678898250138706, rel=1e-12)
    assert not ok
    swept, above_bw = family_sweep(fam, _plant_T(c, 2))
    assert swept >= 2 ** 5
    assert above_bw <= 1e-12


def test_family_count_cap(certified_m4):
    c, cert = certified_m4
    with pytest.raises(InvalidRange):
        scaled_family(c, cert, 4, 1.0, 26)
    with pytest.raises(InvalidRange):
        scaled_family(c, cert, 4, 1.0, 0)


def test_degenerate_certificate_family():
    c = parse_rational("1")
    cert = certify_closed_loop(_plant_T(c, 1), 0.1)
    fam = scaled_family(c, cert, 1, 1.0, 5)
    assert len({family_member(fam, k) for k in range(5)}) == 1, "ratio 1 means identical members"
    max_product, ok = family_product_check(fam)
    assert ok and max_product == cert.peak == 1.0


@pytest.mark.parametrize("bw", [1e-300, 1e-3, 1.0, 1e3, 2e4, 1e300])
def test_degenerate_family_grid_reaches_omega_bw(bw):
    # every gamma is 1/bw exactly, so gamma * omega_bw = omega_high = 1 and
    # the bandwidth comparison holds with equality for any bw
    c = parse_rational("1")
    cert = certify_closed_loop(_plant_T(c, 1), 0.1)
    fam = scaled_family(c, cert, 1, bw, 5)
    assert all(g * Fraction(bw) == 1 for g in fam.gammas)
    max_product, ok = family_product_check(fam)
    assert ok and max_product == cert.peak == 1.0


def test_family_rejects_gammas_outside_double_range(certified_m4):
    # only the sign is checked: the comparisons are exact, so gammas past
    # double range are as good as any
    c, cert = certified_m4
    for bad in (Fraction(0), Fraction(-1)):
        with pytest.raises(InvalidRange):
            ControllerFamily(4, c, (Fraction(1), bad), 1.0, cert)
    for far in (Fraction(10) ** 400, Fraction(1, 10 ** 400)):
        assert ControllerFamily(4, c, (Fraction(1), far), 1.0, cert).gammas[1] == far


def test_family_rejects_band_edges_outside_positive_range(certified_m4):
    c, cert = certified_m4
    for bad in (dict(omega_low=0.0, omega_high=0.0), dict(omega_low=0.0),
                dict(omega_high=math.inf), dict(omega_low=math.nan), dict(epsilon=-0.1)):
        with pytest.raises(InvalidRange):
            ControllerFamily(4, c, (Fraction(1),), 1.0, replace(cert, **bad))


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
    doc = family_to_json(fam, family_product_check(fam))
    doc["schema"] = "family/9"
    with pytest.raises(InvalidRange):
        family_from_json(doc)
