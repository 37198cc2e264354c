"""Rational-function layer: canonical forms, loops, stability verdicts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from platoonctrl.errors import (IllPosed, NonPositiveGamma, PoleAtPoint,
                                StabilityCheckFailed, ZeroDenominator)
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import (RationalFunction, StableLoop, internal_stability, one, s,
                                scale_frequency)

from oracles import closed_loop, gang_of_four_report, maclaurin

ONE = Polynomial([1])
S = Polynomial([0, 1])


def _rand_rf(rng, max_deg=4):
    def rp(lo=0):
        n = rng.randint(lo, max_deg)
        return Polynomial([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                           for _ in range(n + 1)])
    num = rp()
    den = rp()
    while den.is_zero:
        den = rp()
    return RationalFunction(num, den)


# ---------------------------------------------------------------- canonical form

def test_exact_cancellation():
    f = RationalFunction(S * S - ONE, S - ONE)
    assert f == RationalFunction(ONE + S, ONE)
    assert f.den == ONE


def test_coprime_stores_a_proven_pair(call_counts):
    counts = call_counts("poly_gcd")
    f = RationalFunction._coprime(S, (ONE + S) ** 2)
    assert (f.num, f.den) == (S, (ONE + S) ** 2) and counts["poly_gcd"] == 0
    assert f == RationalFunction(S, (ONE + S) ** 2)


@pytest.mark.parametrize("f", [
    RationalFunction(S - ONE, Polynomial([2, 3, 1]) * 2),
    RationalFunction(Polynomial([Fraction(1, 3), 2]), Polynomial([0, 0, 5])),
    RationalFunction(Polynomial([]), ONE),
    one,
    internal_stability(one / (s * s), one + s),
], ids=["plain", "rational-coefficients", "zero", "one", "stable-loop"])
def test_negation_and_power_keep_the_reduced_pair(call_counts, f):
    # -f and f ** k (k >= 0) of a reduced pair with a monic den are reduced
    # and monic already, so neither runs a gcd; a StableLoop's proof does not
    # travel to them
    counts = call_counts("poly_gcd")
    derived = [-f, f ** 0, f ** 1, f ** 3]
    assert counts["poly_gcd"] == 0
    assert derived == [RationalFunction(-f.num, f.den)] + [
        RationalFunction(f.num ** k, f.den ** k) for k in (0, 1, 3)]
    assert [type(g) for g in derived] == [RationalFunction] * 4


def test_monic_denominator():
    f = RationalFunction(Polynomial([2]), Polynomial([4, 2]))
    assert f.den.leading() == 1
    assert f == RationalFunction(ONE, Polynomial([2, 1]))


def test_zero_numerator_collapses():
    f = RationalFunction(Polynomial([]), Polynomial([3, 7, 2]))
    assert f.num.is_zero and f.den == ONE


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RationalFunction(ONE, Polynomial([]))
    with pytest.raises(ZeroDenominator):
        RationalFunction(ONE, ONE) / RationalFunction(Polynomial([]), ONE)


def test_constructor_normalizes_and_evaluates():
    f = RationalFunction(S * S - ONE, S - ONE)
    assert f == RationalFunction(ONE + S, ONE)
    assert f(Fraction(3)) == 4


# ---------------------------------------------------------------- arithmetic

def test_field_identities_randomized():
    rng = random.Random(11)
    for _ in range(300):
        a, b = _rand_rf(rng), _rand_rf(rng)
        assert a + b == b + a
        assert a - a == RationalFunction(Polynomial([]), ONE)
        if not b.num.is_zero:
            assert (a / b) * b == a
        assert a * one == a
        assert (a + b) - b == a


def test_scalar_coercion():
    f = RationalFunction(ONE, ONE + S)
    assert f + 1 == RationalFunction(Polynomial([2, 1]), ONE + S)
    assert 2 * f == RationalFunction(Polynomial([2]), ONE + S)
    assert f + Fraction(1, 2) == RationalFunction(
        Polynomial([Fraction(3, 2), Fraction(1, 2)]), ONE + S)
    # a float scalar enters as its exact binary value
    assert f + 0.25 == f + Fraction(1, 4) == RationalFunction(
        Polynomial([Fraction(5, 4), Fraction(1, 4)]), ONE + S)


def test_powers():
    f = s / (one + s)
    assert f ** 2 == RationalFunction(S * S, (ONE + S) ** 2)
    assert f ** 0 == one
    assert f ** -1 == (one + s) / s


def test_eval_at_pole():
    f = one / (one + s)
    with pytest.raises(PoleAtPoint):
        f(Fraction(-1))


def test_maclaurin():
    f = RationalFunction(ONE + S, Polynomial([1, 1, 1]))
    assert maclaurin(f, 4) == [Fraction(1), Fraction(0), Fraction(-1), Fraction(1)]
    g = one / s
    with pytest.raises(PoleAtPoint):
        maclaurin(g, 2)


# ---------------------------------------------------------------- frequency scaling

def test_scale_frequency_exact_substitution():
    f = s / (one + s)
    g = scale_frequency(f, Fraction(1, 10))
    assert g == RationalFunction(S, Polynomial([10, 1]))
    assert scale_frequency(f, 1) == f
    for gamma in (0, -2):
        with pytest.raises(NonPositiveGamma):
            scale_frequency(f, gamma)


def test_scale_frequency_magnitude_covariance():
    rng = random.Random(4)
    for _ in range(50):
        f = _rand_rf(rng)
        gamma = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        g = scale_frequency(f, gamma)
        z = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        try:
            lhs, rhs = g(z), f(gamma * z)
        except PoleAtPoint:
            continue
        assert lhs == rhs


# ---------------------------------------------------------------- closed loops

def test_closed_loop_complementarity():
    rng = random.Random(21)
    for _ in range(100):
        p, c = _rand_rf(rng), _rand_rf(rng)
        try:
            S_, T_ = closed_loop(p, c)
        except Exception:
            continue
        assert S_ + T_ == one


def test_closed_loop_pd_double_integrator():
    p = one / (s * s)
    c = one + s
    S_, T_ = closed_loop(p, c)
    char = Polynomial([1, 1, 1])
    assert T_ == RationalFunction(ONE + S, char)
    assert S_ == RationalFunction(S * S, char)


def test_only_the_proof_makes_a_stable_loop():
    # internal_stability's T carries its proof; whatever is derived from it,
    # even through a classmethod-style call on T, is a plain RationalFunction,
    # which a Routh test must settle again
    T = internal_stability(one / (s * s), one + s)
    assert type(T) is StableLoop and T == RationalFunction(ONE + S, ONE + S + S * S)
    derived = [-T, T * T, T + 0, scale_frequency(T, Fraction(1, 3)),
               T.from_json_dict(T.to_json_dict()), T._coprime(T.num, T.den)]
    assert [type(f) for f in derived] == [RationalFunction] * len(derived)
    assert derived[4] == T


def test_internal_stability_straight_case(call_counts):
    p, c = one / (s * s), one + s
    counts = call_counts("hurwitz_stable", "poly_gcd")
    T = internal_stability(p, c)
    # one Routh test of the characteristic polynomial, one canonicalisation
    assert (counts["hurwitz_stable"], counts["poly_gcd"]) == (1, 1)
    rep = gang_of_four_report(p, c)
    assert rep.internally_stable and T == rep.gang_of_four[3]
    # the PD controller is improper; properness stays out of the verdict
    assert not all(rep.each_proper)


def test_internal_stability_hidden_cancellation():
    # pole-zero cancellation in the right half plane: the loop looks fine
    # from r to y, but PS = p/(1+pc) keeps the plant pole at s = 1
    p = one / (s - one)
    c = (s - one) / (s + one)
    assert gang_of_four_report(p, c).each_stable == (True, False, True, True)
    with pytest.raises(StabilityCheckFailed, match="characteristic polynomial"):
        internal_stability(p, c)


def test_internal_stability_report_fields():
    # T over the uncancelled characteristic polynomial s^2 + s + 1, the
    # gang of four's T, and S + T = 1
    p, c = one / (s * s), one + s
    rep = gang_of_four_report(p, c)
    T = internal_stability(p, c)
    assert rep.char_poly == Polynomial([1, 1, 1])
    assert T == rep.gang_of_four[3] == RationalFunction(ONE + S, rep.char_poly)
    assert rep.gang_of_four[0] + T == one
    with pytest.raises(IllPosed):
        internal_stability(one, -one)


_COEFFS = st.lists(st.integers(-2, 6), min_size=1, max_size=3).filter(any)
# factors p and c share before reduction: at 0, in Re s > 0 (real and
# complex pair), on the imaginary axis, and in Re s < 0
_SHARED = st.sampled_from([ONE, S, S - 1, S * S - 2 * S + 5, S * S + 1, S + 2])


@settings(max_examples=300, deadline=None, database=None)
@given(np_=_COEFFS, dp=_COEFFS, nc=_COEFFS, dc=_COEFFS, shared=_SHARED,
       pole_in_p=st.booleans(), lift=st.integers(0, 2))
def test_internal_stability_matches_gang_of_four(np_, dp, nc, dc, shared,
                                                 pole_in_p, lift):
    # the factor is a pole of one and a zero of the other; (s+1)^lift on
    # c's numerator makes c improper as often as not
    np_, dp, nc, dc = (Polynomial(cs) for cs in (np_, dp, nc, dc))
    nc = nc * Polynomial([1, 1]) ** lift
    if pole_in_p:
        p, c = RationalFunction(np_, dp * shared), RationalFunction(nc * shared, dc)
    else:
        p, c = RationalFunction(np_ * shared, dp), RationalFunction(nc, dc * shared)
    try:
        rep = gang_of_four_report(p, c)
    except IllPosed:
        with pytest.raises(IllPosed):
            internal_stability(p, c)
        return
    if rep.internally_stable:
        assert internal_stability(p, c) == rep.gang_of_four[3]
    else:
        with pytest.raises(StabilityCheckFailed):
            internal_stability(p, c)


# ---------------------------------------------------------------- serialization

def test_json_round_trip_exact():
    f = RationalFunction(Polynomial([Fraction(1, 3), 2]), Polynomial([1, 0, 5]))
    doc = f.to_json_dict()
    assert RationalFunction.from_json_dict(doc) == f


def test_to_text():
    assert (s / (one + s)).to_text() == "(s) / (1 + s)"
    assert (one + s).to_text() == "1 + s" or (one + s) == one + s
