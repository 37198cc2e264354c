"""Polynomial layer: the coefficient rule, ring identities, gcd, Routh test."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonctrl.errors import ZeroPolynomial
from platoonctrl.poly import (_P, Polynomial, _aberth, _coprime_mod_p, _positive_roots,
                             _taylor_shift, _yun, hurwitz_stable, poly_gcd)
from platoonctrl.ratfun import RationalFunction

from oracles import FractionPolynomial, fraction_gcd, fraction_hurwitz_stable

ONE = Polynomial([1])
S = Polynomial([0, 1])


def _rand_poly(rng, max_deg=5, span=9):
    n = rng.randint(0, max_deg)
    return Polynomial([Fraction(rng.randint(-span, span), rng.randint(1, 4))
                       for _ in range(n + 1)])


# ---------------------------------------------------------------- construction

def test_modes_and_normalization():
    p = Polynomial([1, 2, 3])
    assert p.degree == 2
    assert all(type(c) is Fraction for c in p.coeffs)
    assert Polynomial([1, 2, 0, 0]).degree == 1, "trailing zeros must strip"
    z = Polynomial([])
    assert z.is_zero and z.degree == -1
    assert Polynomial([0, 0]).is_zero
    # floats enter as their exact binary value, strings as exact decimals
    assert Polynomial([0.5]) == Polynomial([Fraction(1, 2)])
    assert Polynomial([0.1]).coeffs[0] == Fraction(0.1)
    assert Polynomial([0.1]).coeffs[0] != Fraction(1, 10)
    assert Polynomial(["0.1", "3/4"]).coeffs == (Fraction(1, 10), Fraction(3, 4))
    assert Polynomial([1, 2]) * 0.5 == Polynomial([Fraction(1, 2), 1])


def test_numpy_integers_enter_as_python_ints():
    # a fixed-width numerator would wrap 2**80 to 0
    p = Polynomial([np.int64(2 ** 40), np.int32(1)])
    assert all(type(c) is int for c in p.ints) and type(p.den) is int
    assert (p * p).coeffs[0] == 2 ** 80


def test_zero_is_mode_neutral():
    # the zero polynomial is the same value whatever kind of scalar built it
    z = Polynomial([])
    assert z + Polynomial([1.5]) == Polynomial([Fraction(3, 2)])
    assert z + Polynomial([Fraction(3, 2)]) == Polynomial(["3/2"])
    assert z == Polynomial([0.0]) == Polynomial([0]) == Polynomial(["0"])
    assert hash(z) == hash(Polynomial([0.0]))


# ---------------------------------------------------------------- representation

def _rand_pair(rng, max_deg=5):
    # one polynomial in both representations: zeros, floats, and rationals
    # over denominators that share factors or are far from every other
    cs = []
    for _ in range(rng.randint(0, max_deg) + 1):
        kind = rng.random()
        if kind < 0.15:
            cs.append(rng.uniform(-4, 4))
        elif kind < 0.25:
            cs.append(0)
        else:
            cs.append(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 9, 12, 2 ** 40))))
    return Polynomial(cs), FractionPolynomial(cs)


def _agree(p: Polynomial, ref: FractionPolynomial):
    # the same Fractions, read from numerators kept in lowest terms over a
    # positive denominator with no trailing zero, the form == and hash rely on
    assert p.coeffs == ref.coeffs
    assert p.den > 0 and all(type(c) is int for c in p.ints)
    if p.ints:
        assert p.ints[-1] != 0 and math.gcd(p.den, *p.ints) == 1
        assert p.leading() == ref.coeffs[-1]
    else:
        assert p.den == 1


def test_representation_agrees_with_fraction_reference_randomized():
    rng = random.Random(16)
    scalars = (3, -2, 0, 0.375, -1e-3, Fraction(7, 6), Fraction(-5, 12))
    gammas = (Fraction(3, 7), Fraction(-4, 9), 7, 2.5, 1e-3)
    for _ in range(400):
        (a, ra), (b, rb), (g, rg) = (_rand_pair(rng) for _ in range(3))
        _agree(a, ra)
        _agree(-a, -ra)
        _agree(a + b, ra + rb)
        _agree(a - b, ra - rb)
        _agree(a * b, ra * rb)
        c = rng.choice(scalars)
        _agree(a * c, ra * c)
        _agree(c * a, ra * c)
        _agree(a + c, ra + FractionPolynomial([c]))
        _agree(c - a, FractionPolynomial([c]) - ra)
        k = rng.randint(0, 4)
        _agree(a ** k, ra ** k)
        gamma = rng.choice(gammas)
        _agree(a.scale(gamma), ra.scale(gamma))
        if not b.is_zero:
            q, r = divmod(a * g + b, b)
            rq, rr = divmod(ra * rg + rb, rb)
            _agree(q, rq)
            _agree(r, rr)
            _agree(b.monic(), rb.monic())
        _agree(poly_gcd(a * g, b * g), fraction_gcd(ra * rg, rb * rg))


def test_routh_table_agrees_with_fraction_reference_randomized():
    rng = random.Random(61)
    for _ in range(500):
        # positive coefficients pass the necessary condition, so the table decides
        cs = [Fraction(rng.randint(1, 30), rng.choice((1, 2, 5, 7)))
              for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.2:
            cs[rng.randrange(len(cs))] *= -1
        p, ref = Polynomial(cs), FractionPolynomial(cs)
        assert hurwitz_stable(p) == fraction_hurwitz_stable(ref), cs
        assert hurwitz_stable(-p) == fraction_hurwitz_stable(-ref), cs


# ---------------------------------------------------------------- ring identities

def test_ring_identities_randomized():
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial([])


def test_divmod_identity_randomized():
    rng = random.Random(7)
    done = 0
    while done < 500:
        a, b = _rand_poly(rng, 6), _rand_poly(rng, 4)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a, f"divmod identity broke for {a.coeffs} / {b.coeffs}"
        assert r.degree < b.degree
        done += 1


def test_binomial_power():
    p = (ONE + S) ** 8
    assert [int(c) for c in p.coeffs] == [1, 8, 28, 56, 70, 56, 28, 8, 1]
    assert (S ** 0) == ONE
    with pytest.raises(ValueError):
        S ** -1


def test_eval_and_scale():
    p = Polynomial([1, 2, 3])
    assert p(Fraction(2)) == 1 + 4 + 12
    g = Fraction(3, 2)
    ps = p.scale(g)
    for z in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        assert ps(z) == p(g * z)


def test_monic_and_text():
    p = Polynomial([2, 0, 4])
    assert p.monic().coeffs == (Fraction(1, 2), Fraction(0), Fraction(1))
    assert Polynomial([1, 1]).to_text() == "1 + s"
    assert Polynomial([-1, 2]).to_text() == "(-1) + 2*s"


# ---------------------------------------------------------------- gcd

def test_gcd_known_factor():
    g = (ONE + S) ** 2
    a = g * (ONE + S) * Polynomial([2, 1])
    b = g * Polynomial([3, 1])
    d = poly_gcd(a, b)
    assert d == g.monic()


def test_gcd_with_zero_and_constants(call_counts):
    assert poly_gcd(Polynomial([]), S) == S  # monic already
    assert poly_gcd(S, S) == S
    # a nonzero constant side answers 1 at once: no modular test, no
    # pseudo-division of the other side
    counts = call_counts("_coprime_mod_p", "_pseudo_divmod")
    big = (ONE + S) ** 40
    assert poly_gcd(Polynomial([5]), S) == ONE
    assert poly_gcd(Polynomial([5]), big) == ONE
    assert poly_gcd(big, Polynomial([Fraction(-2, 3)])) == ONE
    assert poly_gcd(Polynomial([]), Polynomial([7])) == ONE
    f = RationalFunction(big, Polynomial([3]))
    assert (f.num, f.den) == (big * Fraction(1, 3), ONE)
    assert RationalFunction(ONE, S ** 8).den == S ** 8
    assert counts["_coprime_mod_p"] == counts["_pseudo_divmod"] == 0


_fracs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
_polys = st.lists(_fracs, min_size=1, max_size=5).map(Polynomial)
_roots = st.builds(Fraction, st.integers(1, 40), st.integers(1, 6))
# planted common factors: none (a coprime pair, unless the draw shares a
# root), a root at 0, one in Re s > 0, and a repeated one
_planted = st.one_of(
    st.just(ONE),
    st.integers(1, 3).map(lambda k: S ** k),
    _roots.map(lambda r: S - r),
    st.tuples(_fracs, st.integers(2, 3)).map(lambda rk: (S + rk[0]) ** rk[1]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(_polys, _polys, _planted)
def test_gcd_and_constructor_agree_with_fraction_euclid(a, b, g):
    num, den = a * g, b * g
    ra, rb = FractionPolynomial(num.coeffs), FractionPolynomial(den.coeffs)
    d = fraction_gcd(ra, rb)
    _agree(poly_gcd(num, den), d)
    if den.is_zero:
        return
    # the constructor divides both sides by the gcd and makes den monic
    rn, rd = divmod(ra, d)[0], divmod(rb, d)[0]
    lead = 1 / rd.coeffs[-1]
    f = RationalFunction(num, den)
    _agree(f.num, rn * lead)
    _agree(f.den, rd * lead)


def test_gcd_mod_p_proves_a_coprime_pair_without_a_remainder_sequence(call_counts):
    counts = call_counts("_pseudo_divmod")
    a, b = (ONE + S) ** 6 * Polynomial([3, -1]), Polynomial([2, 5, 7]) ** 3
    assert _coprime_mod_p(a.ints, b.ints)
    assert poly_gcd(a, b) == ONE and counts["_pseudo_divmod"] == 0


def test_gcd_unlucky_prime_takes_the_remainder_sequence(call_counts):
    # s + p and s are coprime, but modulo p both are s: the modular test
    # proves nothing and the PRS answers
    counts = call_counts("_pseudo_divmod")
    a = S + _P
    assert not _coprime_mod_p(a.ints, S.ints)
    assert poly_gcd(a, S) == ONE and counts["_pseudo_divmod"] > 0
    # a common factor survives the unlucky images too
    assert poly_gcd(a * (S + 1), S * (S + 1)) == S + 1


def test_gcd_skips_the_modular_test_when_p_divides_the_leading_numerator(call_counts):
    counts = call_counts("_coprime_mod_p", "_pseudo_divmod")
    g = Polynomial([1, _P])  # p s + 1, which is 1 modulo p
    assert poly_gcd(g, S + 3) == ONE
    # the common factor vanishes modulo p, where s + 3 and s + 5 are
    # coprime: only the leading-numerator check keeps this pair off the
    # modular route
    assert _coprime_mod_p((g * (S + 3)).ints, (g * (S + 5)).ints)
    assert poly_gcd(g * (S + 3), g * (S + 5)) == g.monic()
    assert counts["_coprime_mod_p"] == 0 and counts["_pseudo_divmod"] > 0


def test_gcd_divides_randomized():
    rng = random.Random(55)
    for _ in range(200):
        a, b, g = _rand_poly(rng, 3), _rand_poly(rng, 3), _rand_poly(rng, 2)
        if g.is_zero or a.is_zero or b.is_zero:
            continue
        d = poly_gcd(a * g, b * g)
        _, r1 = divmod(a * g, d)
        _, r2 = divmod(b * g, d)
        assert r1.is_zero and r2.is_zero
        _, rg = divmod(d, g.monic())
        assert rg.is_zero, "gcd must pick up the planted common factor"


# ---------------------------------------------------------------- Routh test

def test_hurwitz_known_cases():
    assert hurwitz_stable(ONE + S)
    assert hurwitz_stable((ONE + S) ** 5)
    assert hurwitz_stable(Polynomial([1, 1, 1]))          # s^2+s+1
    assert not hurwitz_stable(Polynomial([1, 0, 1]))      # s^2+1, marginal
    assert not hurwitz_stable(Polynomial([1, -1, 1]))
    assert not hurwitz_stable(Polynomial([1, 1, 1, 1]))   # roots at +-j
    assert hurwitz_stable(Polynomial([-1, -2]))           # -(1+2s): root at -1/2
    assert hurwitz_stable(Polynomial([2, 4]))
    assert hurwitz_stable(Polynomial([7]))                 # nonzero constant
    with pytest.raises(ZeroPolynomial):
        hurwitz_stable(Polynomial([]))


def test_hurwitz_negated_pair_is_stable():
    # -(s+1): root still at -1; sign-normalized before the table
    assert hurwitz_stable(Polynomial([-1, -1]))


def test_hurwitz_vs_roots_randomized():
    rng = random.Random(2024)
    npr = np.random.default_rng(2024)
    checked = 0
    while checked < 500:
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            continue
        roots = np.roots(coeffs[::-1])
        if len(roots) and np.abs(roots.real).min() < 1e-9:
            continue  # too close to the axis for float roots to adjudicate
        expected = bool(len(roots) == 0 or roots.real.max() < 0)
        got = hurwitz_stable(Polynomial(coeffs))
        assert got == expected, f"disagreement on {coeffs}: routh={got} roots={roots}"
        checked += 1
    assert npr is not None


# ---------------------------------------------------------------- positive roots

def _from_roots(roots, extra=((1, 1, 1),)):
    # the integer list with the given rational roots, times quadratics with no real root
    p = Polynomial([1])
    for r in roots:
        r = Fraction(r)
        p = p * Polynomial([-r.numerator, r.denominator])
    for q in extra:
        p = p * Polynomial(list(q))
    return list(p.ints)


def _holds(intervals, roots):
    # each positive root, in order, in its own interval (exact ones equal)
    want = sorted(set(Fraction(r) for r in roots if r > 0))
    assert len(intervals) == len(want)
    for (lo, hi, sign), r in zip(intervals, want):
        assert lo == hi == r if sign == 0 else lo < r < hi


def test_taylor_shift_is_p_of_x_plus_one():
    p = Polynomial([3, -1, 4, -1, 5, 9])
    shifted = Polynomial(_taylor_shift(list(p.ints)))
    for x in (Fraction(-3), Fraction(0), Fraction(2, 7), Fraction(11)):
        assert shifted(x) == p(x + 1)


@settings(max_examples=150, deadline=None, database=None)
@given(roots=st.lists(st.builds(Fraction, st.integers(-60, 60).filter(bool),
                                st.integers(1, 60)), max_size=7, unique=True),
       scale=st.sampled_from([0, 30, -30, 1300, -1300]))
def test_positive_roots_isolates_each_root_once(roots, scale):
    roots = [r * Fraction(2) ** scale for r in roots]
    cs = _from_roots(roots)
    q, found = _positive_roots(cs)
    assert q is cs
    _holds(found, roots)
    # the sign just right of each interval's left end is cs's there
    for lo, hi, sign in found:
        if sign:
            x = lo + (hi - lo) / 2 ** 80 if lo else min(hi, min(r for r in roots if r > 0)) / 2
            assert (Polynomial(cs)(x) > 0) == (sign > 0)
    assert bool(_positive_roots(cs, first=True)[1]) == any(r > 0 for r in roots)


def test_positive_roots_far_apart_take_few_splits(call_counts):
    # 1e-400, 1 and 1e400: the root bounds from both sides jump the scale
    roots = [Fraction(1, 10 ** 400), Fraction(1), Fraction(10 ** 400)]
    counts = call_counts("_taylor_shift")
    _holds(_positive_roots(_from_roots(roots))[1], roots)
    assert counts["_taylor_shift"] < 100


def test_a_multiple_positive_root_leaves_the_squarefree_part():
    # (x - 1)^2 (x - 2)^3 (x + 3): at a split point and off one
    for roots in ([1, 1, 2, 2, 2, -3], [Fraction(1, 3)] * 2 + [5]):
        cs = _from_roots(roots)
        q, found = _positive_roots(cs)
        assert q is not cs and len(q) < len(cs)
        _holds(found, roots)
        assert _positive_roots(cs, first=True)[1]


def test_no_positive_root_is_proven_by_an_empty_list():
    for roots in ([], [-1, -2, Fraction(-1, 10 ** 300)]):
        cs = _from_roots(roots, extra=((1, 0, 1), (4, -1, 1)))
        assert _positive_roots(cs) == (cs, [])
        assert _positive_roots(cs, first=True)[1] == []


def test_odd_part_keeps_the_sign_changes():
    # (x - 1)^2 (x - 2)^3 (x + 3)^4 (x - 5): sign changes at 2 and 5 only,
    # the roots of the factors of odd multiplicity
    cs = _from_roots([1, 1, 2, 2, 2, -3, -3, -3, -3, 5], extra=())
    factors = {k: Polynomial(f).monic() for f, k in _yun(cs)}
    assert factors == {1: Polynomial([-5, 1]), 2: Polynomial([-1, 1]),
                       3: Polynomial([-2, 1]), 4: Polynomial([3, 1])}
    # a factor of multiplicity 200 next to a simple one
    cs = (Polynomial([1, -1]) * Polynomial([1, 2]) ** 200).ints
    assert list(_yun(cs)) == [([-1, 1], 1), ([1, 2], 200)]


def _positive_real_sum(roots):
    return sum(max(w.real, 0.0) for w in roots)


def test_aberth_matches_np_roots():
    # seeded squarefree integer lists of degree 1 to 12, (1 - 10^100 s)(1 + s),
    # (1 - 1000 s)(1 + s/1000), cleared, and roots -1, 0.997, 0.998, 0.999
    # and 1.004, where Horner in floats left the cluster's sum 1e-8 off
    rng = random.Random(34)
    lists = [[1, 1 - 10 ** 100, -10 ** 100], [1000, -999999, -1000],
             [124748379747, -374498375003, 250001620250, 249498375000, -374750000000,
              125000000000]]
    while len(lists) < 200:
        cs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 13))]
        if cs[0] and cs[-1] and [k for _, k in _yun(cs)] == [1]:
            lists.append(cs)
    for cs in lists:
        roots = _aberth(cs)
        want = np.roots(cs[::-1])
        assert len(roots) == len(want) == len(cs) - 1
        size = sum(abs(w) for w in want)
        assert abs(_positive_real_sum(roots) - _positive_real_sum(want)) <= 1e-12 * size, cs
        assert _backward_error(cs, roots) <= 1e-13, cs


def _backward_error(cs, roots):
    # the largest |p(w)| over the sum of |c_i| |w|^i, on cs scaled to its top
    top = max(map(abs, cs))
    f = [c / top for c in cs]
    return max(abs(sum(c * w ** i for i, c in enumerate(f))) /
               sum(abs(c) * abs(w) ** i for i, c in enumerate(f)) for w in roots)


def test_aberth_ends_on_every_input():
    # coefficients past double range of the largest: a root at 0, and one
    # past 2^960 whose side is unknown
    assert _aberth([1, 10 ** 400]) == [0j]
    assert [math.isnan(w.real) for w in _aberth([10 ** 400, 1])] == [True]
    # Wilkinson's 20 roots at 1, ..., 20, ill-conditioned in floats: exact
    # Newton ratios settle each within rounding, and the run is deterministic
    cs = _from_roots(range(1, 21), extra=())
    roots = sorted(_aberth(cs), key=lambda w: w.real)
    assert roots == sorted(_aberth(cs), key=lambda w: w.real)
    assert all(abs(w - k) <= 1e-13 * k for k, w in enumerate(roots, start=1))
