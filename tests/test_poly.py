"""Polynomial layer: the coefficient rule, ring identities, gcd, Routh test."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from platoonctrl.errors import ZeroPolynomial
from platoonctrl.poly import Polynomial, hurwitz_stable, poly_gcd

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



def test_zero_is_mode_neutral():
    # the zero polynomial is the same value whatever kind of scalar built it
    z = Polynomial([])
    assert z + Polynomial([1.5]) == Polynomial([Fraction(3, 2)])
    assert z + Polynomial([Fraction(3, 2)]) == Polynomial(["3/2"])
    assert z == Polynomial([0.0]) == Polynomial([0]) == Polynomial(["0"])
    assert hash(z) == hash(Polynomial([0.0]))


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


def test_gcd_with_zero_and_constants():
    assert poly_gcd(Polynomial([]), S) == S  # monic already
    assert poly_gcd(Polynomial([5]), S) == ONE
    assert poly_gcd(S, S) == S


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
