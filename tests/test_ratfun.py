"""Rational-function layer: canonical forms, loops, stability verdicts."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from platoonctrl.errors import PoleAtPoint, ZeroDenominator
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import (RationalFunction, closed_loop,
                                internal_stability, one, s,
                                scale_frequency)

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
    assert f.maclaurin(4) == [Fraction(1), Fraction(0), Fraction(-1), Fraction(1)]
    g = one / s
    with pytest.raises(PoleAtPoint):
        g.maclaurin(2)


# ---------------------------------------------------------------- frequency scaling

def test_scale_frequency_exact_substitution():
    f = s / (one + s)
    g = scale_frequency(f, Fraction(1, 10))
    assert g == RationalFunction(S, Polynomial([10, 1]))


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


def test_internal_stability_straight_case():
    rep = internal_stability(one / (s * s), one + s)
    assert rep.internally_stable
    assert all(rep.each_stable)
    # the PD controller is improper; properness is reported, not part of
    # the stability verdict
    assert not all(rep.each_proper)


def test_internal_stability_hidden_cancellation():
    # pole-zero cancellation in the right half plane: the loop looks fine
    # from r to y but an internal map is unstable
    p = one / (s - one)
    c = (s - one) / (s + one)
    rep = internal_stability(p, c)
    assert not rep.internally_stable
    assert rep.each_stable == (True, False, True, True)


def test_internal_stability_report_fields():
    rep = internal_stability(one / (s * s), one + s)
    assert len(rep.gang_of_four) == 4
    assert rep.gang_of_four[0] + rep.gang_of_four[3] == one
    assert rep.char_poly == Polynomial([1, 1, 1])


# ---------------------------------------------------------------- serialization

def test_json_round_trip_exact():
    f = RationalFunction(Polynomial([Fraction(1, 3), 2]), Polynomial([1, 0, 5]))
    doc = f.to_json_dict()
    assert RationalFunction.from_json_dict(doc) == f


def test_to_text():
    assert (s / (one + s)).to_text() == "(s) / (1 + s)"
    assert (one + s).to_text() == "1 + s" or (one + s) == one + s
