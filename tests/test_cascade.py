"""Cascade amplification, the integral obstruction, randomized mistuning."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platoonctrl import cascade
from platoonctrl.cascade import (_GainDrawer, _falling_edge, _philox_words, _rising_edge,
                                 _trial_peaks, homogeneous_growth, middleton_integral,
                                 pd_cascade_peak, pd_gain, pd_mistune_experiment, pd_window)
from platoonctrl.errors import (DivergentAtOrigin, InvalidRange,
                                StabilityCheckFailed)
from platoonctrl.freq import LogGrid, default_grid
from platoonctrl.parsing import parse_rational
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import RationalFunction, one, s
from platoonctrl.synthesis import youla_closed_loop

from oracles import (cascade_gain, closed_loop, log_abs_polyval, logspace_samples,
                     middleton_quadrature, pd_cascade_squared, pd_gain_fresh, pd_gains,
                     pd_mistune_by_stages, pd_mistune_full_grid, philox_raw, within_rel)

PEAK_ORACLE = 1.4678898250138706
ARGMAX_ORACLE = 0.8555996771673521


# ---------------------------------------------------------------- cascade gain

def test_single_stage_equals_T():
    c = parse_rational("1+s")
    prof = cascade_gain([c], 2, LogGrid(1e-2, 1e2, 50))
    T = closed_loop(one / (s * s), c)[1]
    direct = np.array([abs(T(1j * w)) for w in prof.omegas])
    assert np.max(np.abs(np.exp(prof.log_magnitudes) - direct)) < 1e-12


def test_log_sum_equals_direct_product():
    cs = [parse_rational(t) for t in ("1+s", "2+s", "1+2*s")]
    prof = cascade_gain(cs, 2, LogGrid(1e-1, 1e1, 40))
    direct = np.ones(len(prof.omegas))
    for c in cs:
        T = closed_loop(one / (s * s), c)[1]
        direct = direct * np.array([abs(T(1j * w)) for w in prof.omegas])
    assert np.max(np.abs(np.exp(prof.log_magnitudes) - direct) / direct) < 1e-9


def test_profile_is_the_stage_order_sum():
    # stages of two degree shapes, interleaved: the sum is the per-stage
    # loop's bits, on np.logspace's samples of the grid
    cs = [parse_rational(t) for t in ("1+s", "(1+s)/(2+s)", "2+s", "(1+s)/(2+s)", "1+2*s")]
    grid = LogGrid(1e-3, 1e3, 30)
    om = np.logspace(-3.0, 3.0, 181)
    om[0], om[-1] = 1e-3, 1e3
    assert om.tobytes() == logspace_samples(grid).tobytes()
    total = np.zeros(len(om))
    for c in cs:
        T = closed_loop(one / (s * s), c)[1]
        total = total + log_abs_polyval(T.num.coeffs, T.den.coeffs, om)
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
    prof = cascade_gain([parse_rational("1+s")], 2, LogGrid(1e-1, 1e1, 5))
    lines = prof.to_csv().splitlines()
    assert lines[0] == "omega,abs,abs_db"
    assert len(lines) == len(prof.omegas) + 1 == 12
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


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 5, 2 ** 128 - 1])
def test_packed_philox_is_numpys_stream(seed):
    # every lane of one packed run is the word numpy's Philox reads for its
    # (trial, vehicle), for vehicles 1 and 10000 side by side, at large
    # counters, and where trial + 1 carries into the vehicle word and on
    for t0, count, vehicles in [(0, 40, (1, 10000)), (2 ** 63 - 2, 5, (1, 2 ** 63 + 1)),
                                (2 ** 64 - 3, 6, (3, 2 ** 64 - 1))]:
        words = _philox_words(seed, t0, count, vehicles)
        assert len(words) == count * len(vehicles)
        for i, v in enumerate(vehicles):
            assert list(words[i * count:(i + 1) * count]) == philox_raw(seed, t0, v, count)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 5, 2 ** 128 - 1])
def test_chunked_gains_are_numpys_draws(monkeypatch, seed):
    # chunks of 7 trials for 3 vehicles, and of 1 trial for 10000: each gain
    # the engine gets is the exact gain a fresh numpy generator gives, rounded
    # once, across every chunk edge
    for n, trials, draw_gains in [(3, 17, 21), (10000, 2, 10000)]:
        got = []
        real = cascade._trial_peaks

        def recording(ks, count, samples):
            got.append((ks, count))
            return real(ks, count, samples)

        monkeypatch.setattr(cascade, "_DRAW_GAINS", draw_gains)
        monkeypatch.setattr(cascade, "_trial_peaks", recording)
        pd_mistune_experiment(n, 0.5, 2.0, trials, seed)
        monkeypatch.undo()
        assert [count for _, count in got] == ([7, 7, 3] if n == 3 else [1, 1])
        by_trial = [trial for ks, count in got
                    for trial in zip(*(ks[v * count:(v + 1) * count] for v in range(n)))]
        vehicles = (1, 2, 3) if n == 3 else (1, 10000)
        for t, stages in enumerate(by_trial, start=1):
            for v in vehicles:
                assert stages[v - 1] == float(pd_gain_fresh(seed, t, v, 0.5, 2.0))


def test_mistune_reproducible():
    r1 = pd_mistune_experiment(6, 0.5, 2.0, 4, 99)
    r2 = pd_mistune_experiment(6, 0.5, 2.0, 4, 99)
    assert r1.to_csv() == r2.to_csv()
    assert r1.peaks == r2.peaks


def test_mistune_builds_no_closed_loop(call_counts, monkeypatch):
    # each stage's T is read from its closed form: k > 0 proves it stable and
    # the pair coprime, so no loop is formed and no gcd taken; every gain
    # comes from one generator, and numpy's Philox is never built
    counts = call_counts("internal_stability", "poly_gcd", "_GainDrawer")
    real_philox = np.random.Philox

    def counted_philox(*args, **kwargs):
        counts["Philox"] += 1
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted_philox)
    pd_mistune_experiment(6, 0.5, 2.0, 4, 99)
    assert (counts["internal_stability"], counts["poly_gcd"]) == (0, 0)
    assert (counts["_GainDrawer"], counts["Philox"]) == (1, 0)


def _assert_exact_peaks(rep, grid):
    # each peak lies within 1e-12 of the exact cascade at its sample, and no
    # sample pd_window keeps exceeds it by more than that
    grid = grid or default_grid()
    samples = [grid[i] for i in pd_window(rep.k_min, rep.k_max, grid)]
    for peak, w, ks in zip(rep.peaks, rep.argmax_omegas,
                           pd_gains(rep.n, rep.k_min, rep.k_max, rep.trials, rep.seed)):
        assert w in samples
        assert within_rel(peak, pd_cascade_squared(ks, w), 1e-12), (ks, w, peak)
        if peak < math.inf:
            bound = (Fraction(peak) * (1 + Fraction(1, 10 ** 12))) ** 2
            assert all(pd_cascade_squared(ks, x) <= bound for x in samples)


@pytest.mark.parametrize("n,k_min,k_max,trials,seed", [
    (1, 0.5, 2.0, 6, 0),
    (7, 0.5, 2.0, 4, 3),
    (7, 0.1, 10.0, 3, 2 ** 128 - 1),
    (20, 0.5, 2.0, 3, 12345),
    (7, 1.3, 1.3, 3, 99),
])
def test_mistune_matches_per_stage_route(n, k_min, k_max, trials, seed):
    # the same gains as the numpy polyval route, each peak exact to 1e-12 at
    # its sample, and that route's argmax sample wherever its best sample
    # leads the next by more than 1e-12
    grid = LogGrid(1e-3, 1e3, 100)
    rep = pd_mistune_experiment(n, k_min, k_max, trials, seed, grid)
    ref = pd_mistune_by_stages(n, k_min, k_max, trials, seed, grid)
    _assert_exact_peaks(rep, grid)
    for t, ks in enumerate(pd_gains(n, k_min, k_max, trials, seed)):
        logs = cascade_gain([RationalFunction(Polynomial([1, k])) for k in ks], 2, grid).log_magnitudes
        second, first = np.sort(logs)[-2:]
        assert rep.peaks[t] == pytest.approx(ref.peaks[t], rel=1e-12)
        if first - second > 1e-12:
            assert rep.argmax_omegas[t] == grid[int(np.argmax(logs))]


@pytest.mark.parametrize("n,k_min,k_max,trials,grid", [
    (20, 0.5, 2.0, 5, None),
    (1, 1e-300, 1e-300, 3, None),                     # k^2 = 0: the w = 1 column
    (1, 1e-160, 1e-155, 3, None),                     # k^2 subnormal
    (2, 1e-300, 1e-300, 2, None),                     # peaks past double range
    (20, 1e150, 1e300, 3, None),                      # k^2 past double range
    (4, 1e300, 1e300, 2, LogGrid(1e-300, 1e300, 1)),  # x underflows below 1e-162
    (3, 1e-300, 1e300, 2, LogGrid(1e-300, 1e300, 1)),
    (7, 0.5, 2.0, 3, LogGrid(2, 100)),                # one sample, past sqrt 2
    (5, 0.01, 10.0, 3, LogGrid(1e-8, 1e8, 7)),
    (5, 1e-3, 1e3, 3, LogGrid(0.9, 1.2, 3)),
])
def test_mistune_peaks_are_exact(n, k_min, k_max, trials, grid):
    _assert_exact_peaks(pd_mistune_experiment(n, k_min, k_max, trials, 11, grid), grid)


@pytest.mark.parametrize("n", [1, 20, 100])
def test_homogeneous_peak_is_exact(n):
    # every k = 1: the peak at the grid sample next to sqrt(sqrt 3 - 1), exact to 1e-12
    grid = default_grid()
    peak, w = pd_cascade_peak([1] * n, grid)
    assert within_rel(peak, pd_cascade_squared([1] * n, w), 1e-12)
    assert len(pd_window(1.0, 1.0, grid)) == 2
    for i in pd_window(1.0, 1.0, grid):
        assert pd_cascade_squared([1] * n, grid[i]) <= (Fraction(peak) * (1 + Fraction(1, 10 ** 12))) ** 2
    prof = cascade_gain([parse_rational("1+s")] * n, 2, grid)
    assert w == grid[int(np.argmax(prof.log_magnitudes))]
    assert peak == pytest.approx(prof.peak, rel=1e-12)


def test_mistune_degenerate_distribution():
    rep = pd_mistune_experiment(5, 1.0, 1.0, 3, 11)
    hom = cascade_gain([parse_rational("1+s")] * 5, 2)
    for pk in rep.peaks:
        assert pk == pytest.approx(hom.peak, rel=1e-12)
    assert rep.peaks[0] == pytest.approx(PEAK_ORACLE ** 5, rel=1e-3)


def test_mistune_median_beats_homogeneous():
    grid = default_grid()
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


def _peak_side(k: float, w: float) -> Fraction:
    # k^2 X^2 + 2 X - 2 for X = w^2 >= 0: w^2 <= x* iff it is <= 0, x* being
    # the quadratic's positive root
    K, X = Fraction(k), Fraction(w) ** 2
    return K * K * X * X + 2 * X - 2


@example(k_max=1e-300)
@example(k_max=1e300)
@example(k_max=1.7976931348623157e308)
@example(k_max=1e154)
@settings(max_examples=300, deadline=None, database=None)
@given(k_max=st.floats(-300, 300).map(lambda e: 10.0 ** e))
def test_rising_edge_is_at_or_below_the_exact_one(k_max):
    # the edge sits within 1e-14 of the exact one
    w = _rising_edge(k_max)
    assert _peak_side(k_max, w) <= 0
    assert w == 0.0 or _peak_side(k_max, w * (1 + 1e-14)) > 0


@example(k_min=5e-324)
@example(k_min=1e-300)
@example(k_min=1e154)
@example(k_min=1.3e308)
@example(k_min=1.7976931348623157e308)
@settings(max_examples=300, deadline=None, database=None)
@given(k_min=st.floats(-300, 300).map(lambda e: 10.0 ** e))
def test_falling_edge_is_at_or_above_the_exact_one(k_min):
    # the mirror of the rising edge: at or past w*(k_min), within 1e-14 of it
    w = _falling_edge(k_min)
    assert _peak_side(k_min, w) >= 0
    assert _peak_side(k_min, w * (1 - 1e-14)) < 0


_WINDOW_GRIDS = [None, LogGrid(1e-3, 0.5), LogGrid(2, 100), LogGrid(0.9, 1.2, 3),
                 LogGrid(1e-8, 1e8, 7)]


def _grid_id(grid):
    return "None" if grid is None else \
        f"LogGrid({grid.omega_min:g}, {grid.omega_max:g}, {grid.points_per_decade})"


@pytest.mark.parametrize("grid", _WINDOW_GRIDS, ids=_grid_id)
@example(n=20, trials=1, seed=2 ** 128 - 1, log_k_max=15.75, spread=0.0)  # a tie on 7 per decade
@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 20), trials=st.integers(1, 2),
       seed=st.one_of(st.just(2 ** 128 - 1), st.integers(0, 2 ** 128 - 1)),
       log_k_max=st.floats(-300, 300), spread=st.floats(0, 6))
def test_mistune_window_matches_full_grid(grid, n, trials, seed, log_k_max, spread):
    # the window keeps, bit for bit, what the same engine reports on the full
    # grid, for every 0 < k_min <= k_max <= 1e300. Past k_max = 1e3 (first
    # seen near 1e15 on the sparsest grid) two samples' sums can tie in
    # floats where their exact values differ by less than rounding; the full
    # grid then picks the first, outside the window, and it is that tie
    k_max = 10.0 ** log_k_max
    k_min = k_max * 10.0 ** -spread
    rep = pd_mistune_experiment(n, k_min, k_max, trials, seed, grid)
    peaks, argmaxes = pd_mistune_full_grid(n, k_min, k_max, trials, seed, grid)
    assert rep.peaks == tuple(peaks)
    for t, (got, full) in enumerate(zip(rep.argmax_omegas, argmaxes)):
        if got != full:
            assert k_max > 1e3 and full < got
            ks = pd_gains(n, k_min, k_max, trials, seed)[t]
            tie = pd_cascade_squared(ks, full) / pd_cascade_squared(ks, got)
            assert 1 - Fraction(1, 10 ** 12) <= tie <= 1


@pytest.mark.parametrize("n,k_min,k_max,trials,grid", [
    (20, 0.5, 2.0, 30, None),
    (1, 0.1, 0.1, 600, None),
    (9, 0.01, 10.0, 40, LogGrid(1e-3, 1e3, 100)),
    (300, 0.5, 2.0, 3, None),
])
def test_mistune_blocks_match_per_stage_route(monkeypatch, n, k_min, k_max, trials, grid):
    # blocks of 1, 13 and every trial evaluated as one flat list report what
    # each trial's stages give alone, across block edges
    samples = [(grid or default_grid())[i] for i in pd_window(k_min, k_max, grid or default_grid())]
    ks = _GainDrawer(5, k_min, k_max).gains(1, trials, range(1, n + 1))
    alone = [_trial_peaks(ks[t::trials], 1, samples) for t in range(trials)]
    want = (tuple(p[0] for p, _ in alone), tuple(a[0] for _, a in alone))
    for block in (1, 13, trials):
        monkeypatch.setattr(cascade, "_BLOCK_SAMPLES", block * len(samples))
        rep = pd_mistune_experiment(n, k_min, k_max, trials, 5, grid)
        assert (rep.peaks, rep.argmax_omegas) == want
    assert (rep.median_peak, rep.max_peak) == (statistics.median(want[0]), max(want[0]))


@pytest.mark.parametrize("n, trials, draw_gains", [
    (20, 40, 20 * 13 * 2),  # chunks of 26 trials: the edge falls inside
    (300, 7, 300 * 3),      # chunks of 3 trials
])
def test_mistune_gain_chunks_match_per_stage_route(monkeypatch, n, trials, draw_gains):
    # gains drawn a chunk of trials per pass of the generator report what one
    # pass over every trial gives
    want = pd_mistune_experiment(n, 0.5, 2.0, trials, 3)
    calls = []
    real = cascade._GainDrawer.gains

    def counting(self, t0, count, vehicles):
        calls.append(count)
        return real(self, t0, count, vehicles)

    monkeypatch.setattr(cascade, "_DRAW_GAINS", draw_gains)
    monkeypatch.setattr(cascade._GainDrawer, "gains", counting)
    rep = pd_mistune_experiment(n, 0.5, 2.0, trials, 3)
    assert (rep.peaks, rep.argmax_omegas) == (want.peaks, want.argmax_omegas)
    chunk = draw_gains // n
    assert len(calls) == -(-trials // chunk) and max(calls) == chunk


def test_mistune_trial_evaluates_at_most_62_samples(monkeypatch):
    # the default grid's window for gains in [0.5, 2] is 28 of its 1601
    # samples, 62 before it kept only the proven bracket, and each stage of
    # each trial is evaluated once
    calls = []
    real = cascade._trial_peaks

    def counting(ks, count, samples):
        calls.append((len(ks), len(samples)))
        return real(ks, count, samples)

    monkeypatch.setattr(cascade, "_trial_peaks", counting)
    pd_mistune_experiment(20, 0.5, 2.0, 30, 1)
    assert max(samples for _, samples in calls) == 28
    assert sum(gains for gains, _ in calls) == 20 * 30
    assert len(default_grid()) == 1601
