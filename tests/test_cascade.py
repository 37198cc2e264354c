"""Cascade amplification, the integral obstruction, randomized mistuning."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platoonctrl import cascade
from platoonctrl.cascade import (_GainDrawer, _rising_edge, homogeneous_growth,
                                 middleton_integral, pd_gain, pd_mistune_experiment, pd_window)
from platoonctrl.errors import (DivergentAtOrigin, InvalidRange,
                                StabilityCheckFailed)
from platoonctrl.freq import FrequencyGrid, default_grid
from platoonctrl.parsing import parse_rational
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import RationalFunction, one, s
from platoonctrl.synthesis import youla_closed_loop

from oracles import (cascade_gain, closed_loop, log_abs_polyval, middleton_quadrature,
                     pd_gain_fresh, pd_mistune_by_stages)

PEAK_ORACLE = 1.4678898250138706
ARGMAX_ORACLE = 0.8555996771673521


# ---------------------------------------------------------------- cascade gain

def test_single_stage_equals_T():
    c = parse_rational("1+s")
    grid = FrequencyGrid(1e-2, 1e2, 50)
    prof = cascade_gain([c], 2, grid)
    T = closed_loop(one / (s * s), c)[1]
    direct = np.array([abs(T(1j * w)) for w in grid.omegas])
    assert np.max(np.abs(np.exp(prof.log_magnitudes) - direct)) < 1e-12


def test_log_sum_equals_direct_product():
    cs = [parse_rational(t) for t in ("1+s", "2+s", "1+2*s")]
    grid = FrequencyGrid(1e-1, 1e1, 40)
    prof = cascade_gain(cs, 2, grid)
    direct = np.ones(len(grid.omegas))
    for c in cs:
        T = closed_loop(one / (s * s), c)[1]
        direct = direct * np.array([abs(T(1j * w)) for w in grid.omegas])
    assert np.max(np.abs(np.exp(prof.log_magnitudes) - direct) / direct) < 1e-9


def test_profile_is_the_stage_order_sum():
    # stages of two degree shapes, interleaved: the stacked evaluation must
    # give each stage's row and the sum the per-stage loop's bits
    cs = [parse_rational(t) for t in ("1+s", "(1+s)/(2+s)", "2+s", "(1+s)/(2+s)", "1+2*s")]
    grid = FrequencyGrid(1e-3, 1e3, 30)
    total = np.zeros(len(grid.omegas))
    for c in cs:
        T = closed_loop(one / (s * s), c)[1]
        total = total + log_abs_polyval(T.num.coeffs, T.den.coeffs, grid.omegas)
    prof = cascade_gain(cs, 2, grid)
    assert prof.log_magnitudes.tobytes() == total.tobytes()


def test_homogeneous_cascade_peak():
    c = parse_rational("1+s")
    prof = cascade_gain([c] * 10, 2)
    assert prof.peak >= 2 ** 5, "ten stages at peak >= sqrt(2) compound past 32"
    # grid max, not the refined supremum: allow the 200-ppd sampling gap
    assert prof.peak == pytest.approx(PEAK_ORACLE ** 10, rel=1e-3)
    assert prof.argmax_omega == pytest.approx(ARGMAX_ORACLE, rel=1e-2)


def test_cascade_names_offender():
    good, bad = parse_rational("1+s"), parse_rational("-1")
    with pytest.raises(StabilityCheckFailed) as info:
        cascade_gain([good, bad, good], 2)
    assert "2" in str(info.value)


def test_cascade_validation():
    with pytest.raises(InvalidRange):
        cascade_gain([], 2)


def test_profile_csv_shape():
    prof = cascade_gain([parse_rational("1+s")], 2, FrequencyGrid(1e-1, 1e1, 5))
    lines = prof.to_csv().splitlines()
    assert lines[0] == "omega,abs,abs_db"
    assert len(lines) == len(prof.grid.omegas) + 1
    om, mag, db = lines[1].split(",")
    assert float(om) == pytest.approx(0.1)
    assert float(db) == pytest.approx(20 * math.log10(float(mag)), abs=1e-9)


# ---------------------------------------------------------------- integral obstruction

# (m, controller): loops of order m >= 2, and m = 1 loops whose T has a
# right-half-plane zero (at s = 2, 10 and 2), which adds pi Re(1/z)
_MIDDLETON_ZOO = [(2, "1+s"), (2, "2+s"), (2, "1+2*s"), (2, "1+0.7*s"),
                  (2, "(1+s)/(2+s)"), (3, "(1+s)^2")]
_NON_MINIMUM_PHASE = [(1, "(1-0.5*s)/(s+2)"), (1, "(1-0.1*s)/(1+s)"), (1, "(2-s)/(s+3)")]


def _loop_T(m, c):
    return closed_loop(RationalFunction(Polynomial([1]), Polynomial([0, 1]) ** m), c)[1]


def test_middleton_analytic_oracle():
    # the quadrature oracle meets the analytic -pi/2 for 1/(1+s) within its bound
    value, bound = middleton_quadrature(one / (one + s))
    assert abs(value - (-math.pi / 2)) < bound + 1e-7
    assert bound < 1e-3


def test_middleton_closed_form_matches_quadrature(certified_m4):
    loops = [one / (one + s), _loop_T(4, certified_m4[0])]
    loops += [_loop_T(m, parse_rational(c)) for m, c in _MIDDLETON_ZOO + _NON_MINIMUM_PHASE]
    for T in loops:
        value, bound = middleton_quadrature(T)
        assert abs(middleton_integral(T) - value) <= bound, f"T = {T}"


def test_middleton_zoo_nonnegative(certified_m4):
    loops = [_loop_T(m, parse_rational(c)) for m, c in _MIDDLETON_ZOO]
    loops.append(_loop_T(4, certified_m4[0]))
    for T in loops:
        assert middleton_integral(T) >= 0.0, f"integral false-negative for T = {T}"


def test_middleton_frozen_bits(certified_m4):
    # (pi/2) T'(0), with no right-half-plane zero in the first three cases
    assert middleton_integral(one / (one + s)) == -math.pi / 2
    T = RationalFunction(Polynomial([1, 1]), Polynomial([1, 1, 1]))
    assert middleton_integral(T) == 0.0
    _, cert = certified_m4
    T4 = youla_closed_loop(4, cert.gamma_a, cert.gamma_b)
    assert middleton_integral(T4) == 0.0
    # by hand: T = (2-s)/(s^2+2s+2) has T'(0) = -3/2 and one zero, at 2,
    # so the integral is (pi/2)(-3/2) + pi/2 = -pi/4
    T = _loop_T(1, parse_rational("(2-s)/(s+3)"))
    assert middleton_integral(T) == pytest.approx(-math.pi / 4, rel=1e-15)


def test_middleton_requires_unit_dc():
    # T(0) = 1/2: the 1/omega^2 weight makes the head non-integrable
    with pytest.raises(DivergentAtOrigin):
        middleton_integral(RationalFunction(Polynomial([1]), Polynomial([2, 1])))


def test_middleton_preconditions():
    with pytest.raises(StabilityCheckFailed):
        middleton_integral(one / (s - one))             # unstable
    with pytest.raises(StabilityCheckFailed):
        middleton_integral((one + s) / (one + s + s * s) * (one + s) / one)  # improper tail


# ---------------------------------------------------------------- growth table

def test_growth_oracles():
    t = homogeneous_growth(parse_rational("1+s"), 2, 12)
    assert t.hinf == pytest.approx(PEAK_ORACLE, rel=1e-12)
    assert t.omega0 == pytest.approx(ARGMAX_ORACLE, rel=1e-6)
    assert t.growth_flagged


def test_growth_log_linearity():
    t = homogeneous_growth(parse_rational("1+s"), 2, 15)
    base = math.log(t.rows[0][1])
    for n, gain in t.rows:
        assert abs(math.log(gain) - n * base) < 1e-9


def test_growth_flat_for_first_order():
    t = homogeneous_growth(parse_rational("1"), 1, 8)
    assert t.hinf == pytest.approx(1.0, abs=1e-12)
    assert not t.growth_flagged
    assert all(gain == pytest.approx(1.0, abs=1e-9) for _, gain in t.rows)


def test_growth_validation():
    with pytest.raises(StabilityCheckFailed):
        homogeneous_growth(parse_rational("-1"), 2, 5)
    with pytest.raises(InvalidRange):
        homogeneous_growth(parse_rational("1+s"), 2, 0)


def test_growth_csv():
    t = homogeneous_growth(parse_rational("1+s"), 2, 3)
    lines = t.to_csv().splitlines()
    assert lines[0] == "n,gain"
    assert lines[1].startswith("1,1.4678898250138")


# ---------------------------------------------------------------- randomized mistuning

def test_pd_gain_deterministic_and_bounded():
    a = pd_gain(42, 3, 7, 0.5, 2.0)
    b = pd_gain(42, 3, 7, 0.5, 2.0)
    assert a == b
    assert Fraction(1, 2) <= a <= 2
    assert pd_gain(42, 3, 8, 0.5, 2.0) != a, "distinct counters give distinct draws"


@pytest.mark.parametrize("seed", [0, 7, 2 ** 128 - 1])
def test_one_generator_draws_what_a_fresh_one_draws(seed):
    # one drawer, reset before each draw, in an order that revisits and jumps
    # between counters, including large ones; the fresh route passes its
    # counter through float64, so only counters exact in a double are compared
    pairs = [(1, 1), (1, 2), (3, 7), (1, 1), (200, 20), (2 ** 63, 1), (1, 2 ** 63),
             (2 ** 63, 2 ** 63), (2 ** 53 - 1, 2 ** 53 + 2), (2, 1)]
    for k_min, k_max in [(0.5, 2.0), (0.1, 10.0), (1.3, 1.3)]:
        draw = _GainDrawer(seed, k_min, k_max)
        for t, v in pairs:
            want = pd_gain_fresh(seed, t, v, k_min, k_max)
            assert draw(t, v) == want
            assert pd_gain(seed, t, v, k_min, k_max) == want
    # the drawer keeps a counter that a double cannot hold exact
    draw = _GainDrawer(seed, 0.5, 2.0)
    assert draw(5, 2 ** 63 + 1) != draw(5, 2 ** 63)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 128 - 1])
def test_block_stream_draws_what_a_fresh_generator_draws(seed):
    # one stream per vehicle and block of trials, starting past trial 1, gives
    # each (trial, vehicle) the reduced gain a generator built for it gives
    for k_min, k_max in [(0.5, 2.0), (1e-300, 1e300), (1.3, 1.3)]:
        drawer = _GainDrawer(seed, k_min, k_max)
        for t0, count in [(2, 1), (5, 13), (2 ** 53 - 20, 7)]:
            for v in (1, 2, 20):
                want = [pd_gain_fresh(seed, t, v, k_min, k_max) for t in range(t0, t0 + count)]
                assert drawer.pairs(t0, count, v) == [(k.numerator, k.denominator) for k in want]


def test_mistune_reproducible():
    r1 = pd_mistune_experiment(6, 0.5, 2.0, 4, 99)
    r2 = pd_mistune_experiment(6, 0.5, 2.0, 4, 99)
    assert r1.to_csv() == r2.to_csv()
    assert r1.peaks == r2.peaks


def test_mistune_builds_no_closed_loop(call_counts, monkeypatch):
    # each stage's T is read from its closed form: k > 0 proves it stable and
    # the pair coprime, so no loop is formed and no gcd taken; every gain
    # comes from one generator
    counts = call_counts("internal_stability", "poly_gcd")
    real_philox = np.random.Philox

    def counted_philox(*args, **kwargs):
        counts["Philox"] += 1
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted_philox)
    pd_mistune_experiment(6, 0.5, 2.0, 4, 99)
    assert (counts["internal_stability"], counts["poly_gcd"]) == (0, 0)
    assert counts["Philox"] == 1


@pytest.mark.parametrize("n,k_min,k_max,trials,seed", [
    (1, 0.5, 2.0, 6, 0),
    (7, 0.5, 2.0, 4, 3),
    (7, 0.1, 10.0, 3, 2 ** 128 - 1),
    (20, 0.5, 2.0, 3, 12345),
    (7, 1.3, 1.3, 3, 99),
])
def test_mistune_matches_per_stage_route(n, k_min, k_max, trials, seed):
    grid = FrequencyGrid(1e-3, 1e3, 100)
    rep = pd_mistune_experiment(n, k_min, k_max, trials, seed, grid)
    ref = pd_mistune_by_stages(n, k_min, k_max, trials, seed, grid)
    assert rep.peaks == ref.peaks
    assert rep.argmax_omegas == ref.argmax_omegas
    assert rep.to_csv() == ref.to_csv()


def test_mistune_degenerate_distribution():
    rep = pd_mistune_experiment(5, 1.0, 1.0, 3, 11)
    hom = cascade_gain([parse_rational("1+s")] * 5, 2)
    for pk in rep.peaks:
        assert pk == pytest.approx(hom.peak, rel=1e-12)
    assert rep.peaks[0] == pytest.approx(PEAK_ORACLE ** 5, rel=1e-3)


def test_mistune_median_beats_homogeneous():
    grid = FrequencyGrid(1e-4, 1e4, 200)
    rep = pd_mistune_experiment(20, 0.5, 2.0, 100, 42, grid)
    hom = cascade_gain([parse_rational("1+s")] * 20, 2, grid)
    assert rep.median_peak < hom.peak
    assert rep.max_peak >= rep.median_peak
    assert rep.trials == 100 and len(rep.peaks) == 100


def test_mistune_validation():
    with pytest.raises(InvalidRange):
        pd_mistune_experiment(0, 0.5, 2.0, 5, 1)
    with pytest.raises(InvalidRange):
        pd_mistune_experiment(5, 0.0, 2.0, 5, 1)
    with pytest.raises(InvalidRange):
        pd_mistune_experiment(5, 2.0, 0.5, 5, 1)
    with pytest.raises(InvalidRange):
        pd_mistune_experiment(5, 0.5, 2.0, 0, 1)


def test_mistune_csv_shape():
    rep = pd_mistune_experiment(3, 0.5, 2.0, 2, 5)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "trial,peak,argmax_omega"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"


# ---------------------------------------------------------------- the peak window

def _abs2_in_x(coeffs):
    # |p(j omega)|^2 as a polynomial in x = omega^2: with p(s) = E(s^2) + s O(s^2),
    # it is E(-x)^2 + x O(-x)^2
    even = Polynomial([c * (-1) ** (i // 2) for i, c in enumerate(coeffs) if i % 2 == 0])
    odd = Polynomial([c * (-1) ** (i // 2) for i, c in enumerate(coeffs) if i % 2 == 1])
    return even * even + Polynomial([0, 1]) * odd * odd


def _derivative(p):
    return Polynomial([i * c for i, c in enumerate(p.coeffs)][1:])


_RATIONALS = st.fractions(min_value=0, max_value=100, max_denominator=10 ** 6)


@settings(max_examples=200, deadline=None, database=None)
@given(k=_RATIONALS.filter(lambda k: k > 0), x=_RATIONALS)
def test_pd_stage_identities(k, x):
    # |T_k|^2 = A/B in x = omega^2, read off the stage's coefficients
    A, B = _abs2_in_x((1, k)), _abs2_in_x((1, k, 1))
    assert A(x) / B(x) - 1 == x * (2 - x) / ((1 - x) ** 2 + k ** 2 * x)
    # d(A/B)/dx = (A'B - AB')/B^2: the sign of its numerator
    slope = _derivative(A)(x) * B(x) - A(x) * _derivative(B)(x)
    assert slope == 2 - 2 * x - k ** 2 * x ** 2


@example(k_max=1e-300)
@example(k_max=1e300)
@example(k_max=1.7976931348623157e308)
@example(k_max=1e154)
@settings(max_examples=300, deadline=None, database=None)
@given(k_max=st.floats(-300, 300).map(lambda e: 10.0 ** e))
def test_rising_edge_is_at_or_below_the_exact_one(k_max):
    # w^2 <= x* iff k^2 X^2 + 2 X - 2 <= 0 for X = w^2 >= 0, x* being the
    # quadratic's positive root; the edge sits within 1e-14 of it
    K = Fraction(k_max)

    def below(w):
        X = Fraction(w) ** 2
        return K * K * X * X + 2 * X - 2 <= 0

    w = _rising_edge(k_max)
    assert below(w)
    assert w == 0.0 or not below(w * (1 + 1e-14))


_WINDOW_GRIDS = [None, FrequencyGrid(1e-3, 0.5), FrequencyGrid(2, 100),
                 FrequencyGrid(0.9, 1.2, 3), FrequencyGrid(1e-8, 1e8, 7)]


@pytest.mark.parametrize("grid", _WINDOW_GRIDS, ids=repr)
@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 20), trials=st.integers(1, 2),
       seed=st.one_of(st.just(2 ** 128 - 1), st.integers(0, 2 ** 128 - 1)),
       log_k_max=st.floats(-300, 3), spread=st.floats(0, 6))
def test_mistune_window_matches_full_grid(grid, n, trials, seed, log_k_max, spread):
    # the window keeps, bit for bit, what the full grid reports, for every
    # 0 < k_min <= k_max <= 1e3
    k_max = 10.0 ** log_k_max
    k_min = k_max * 10.0 ** -spread
    rep = pd_mistune_experiment(n, k_min, k_max, trials, seed, grid)
    ref = pd_mistune_by_stages(n, k_min, k_max, trials, seed, grid)
    assert rep.peaks == ref.peaks
    assert rep.argmax_omegas == ref.argmax_omegas
    assert rep.to_csv() == ref.to_csv()


@pytest.mark.parametrize("n,k_min,k_max,trials,grid", [
    (20, 0.5, 2.0, 30, None),                          # blocks of 13, 13 and 4 trials
    (1, 0.1, 0.1, 600, None),                          # blocks of 512 and 88
    (9, 0.01, 10.0, 40, FrequencyGrid(1e-3, 1e3, 100)),  # blocks of 29 and 11
    (300, 0.5, 2.0, 3, None),                          # 300 x 62 samples: one trial a block
])
def test_mistune_blocks_match_per_stage_route(n, k_min, k_max, trials, grid):
    # blocks of trials evaluated as one stack report what each trial's stages
    # give one by one, across block edges and when a trial alone fills a block
    window = pd_window(k_max, grid or default_grid())
    block = cascade._BLOCK_SAMPLES // (n * len(window))
    assert 1 < block < trials or (block == 0 and trials > 1)
    rep = pd_mistune_experiment(n, k_min, k_max, trials, 5, grid)
    ref = pd_mistune_by_stages(n, k_min, k_max, trials, 5, grid)
    assert rep.peaks == ref.peaks
    assert rep.argmax_omegas == ref.argmax_omegas
    assert (rep.median_peak, rep.max_peak) == (ref.median_peak, ref.max_peak)


@pytest.mark.parametrize("n, trials, draw_gains", [
    (20, 40, 20 * 13 * 2),   # blocks of 13 trials, chunks of 26: both edges fall inside
    (300, 7, 300 * 3),       # one trial a block, chunks of 3 trials
])
def test_mistune_gain_chunks_match_per_stage_route(monkeypatch, n, trials, draw_gains):
    # gains drawn a chunk of whole blocks per generator reset report what
    # each trial's stages, drawn one by one, give
    calls = []
    real = cascade._GainDrawer.pairs

    def counting(self, t0, count, vehicle):
        calls.append(count)
        return real(self, t0, count, vehicle)

    monkeypatch.setattr(cascade, "_DRAW_GAINS", draw_gains)
    monkeypatch.setattr(cascade._GainDrawer, "pairs", counting)
    rep = pd_mistune_experiment(n, 0.5, 2.0, trials, 3)
    ref = pd_mistune_by_stages(n, 0.5, 2.0, trials, 3, None)
    assert (rep.peaks, rep.argmax_omegas) == (ref.peaks, ref.argmax_omegas)
    chunk = draw_gains // n
    assert len(calls) == n * -(-trials // chunk) and max(calls) == chunk


def test_mistune_trial_evaluates_at_most_62_samples(monkeypatch):
    # the default grid's window for gains in [0.5, 2] is 62 of its 1601
    # samples, and each stage's numerator and denominator are evaluated once
    calls = []
    real = cascade._log_abs_scaled

    def counting(desc, top, omegas):
        calls.append((len(desc), len(omegas)))
        return real(desc, top, omegas)

    monkeypatch.setattr(cascade, "_log_abs_scaled", counting)
    pd_mistune_experiment(20, 0.5, 2.0, 30, 1)
    assert max(samples for _, samples in calls) <= 62
    assert sum(rows for rows, _ in calls) == 2 * 20 * 30
    assert len(default_grid().omegas) == 1601
