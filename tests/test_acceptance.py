"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Run with -v to get a pass/fail line per criterion. Everything here sticks to
the public API and the reference routes in oracles.py; expected values are
either exact identities or frozen closed-form oracles.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from platoonctrl import (
    LogGrid,
    bode_table,
    family_product_check,
    internal_stability,
    lift_order,
    middleton_integral,
    parse_rational,
    plant,
    scaled_family,
    sensitivity_matrix,
    verify_factorization,
)
from platoonctrl.cli import main
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import RationalFunction

from oracles import (cascade_gain, closed_loop, family_member, invariance_check,
                     lemma_structures, logspace_samples, youla_coprime)

S_EXACT = parse_rational("s")
ONE = parse_rational("1")


def test_criterion_01_exact_factorization(tmp_path):
    # library route and CLI route must both pass for every length up to 40
    assert all(verify_factorization(n) for n in range(1, 41))
    assert main(["verify-lemma", "--n", "40", "--out", str(tmp_path)]) == 0


def test_criterion_02_leading_block_invariance():
    # the leading k x k block of the sensitivity matrix does not depend on
    # the platoon length; exact comparison, k up to 10, lengths up to 20
    for k in range(1, 11):
        assert invariance_check(k, range(k, 21))


def test_criterion_03_first_entry_closed_form():
    expected = RationalFunction(Polynomial([0, 1]), Polynomial([1, 1]))
    for n in range(1, 21):
        assert sensitivity_matrix(n)[0][0] == expected, f"n={n}"


def test_criterion_04_bode_bound_n20():
    table = bode_table(20, 1e-3, 1e3, 100)
    assert table.worst_excess <= 1e-9, f"worst excess {table.worst_excess:.3e}"


def test_criterion_05_numeric_oracle_n8():
    n = 8
    Xr, Hr, _, _ = lemma_structures(n)
    Sn = sensitivity_matrix(n)
    rng = np.random.default_rng(1234)
    omegas = 10.0 ** rng.uniform(-3.0, 3.0, size=20)
    for om in omegas:
        z = 1j * om
        X = np.zeros((n, n), dtype=complex)
        H = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                f = Xr[i][j]
                if not f.num.is_zero:
                    X[i, j] = f(z)
            H[i, i] = Hr[i][i](z)
        dense = np.linalg.inv(np.eye(n) + X @ H @ X.T)
        sym = np.array([[Sn[i][j](z) for j in range(n)]
                        for i in range(n)])
        rel = np.abs(sym - dense) / np.maximum(np.abs(dense), 1e-300)
        assert rel.max() <= 1e-9, f"omega={om:g} rel={rel.max():.3e}"


def test_criterion_06_homogeneous_amplification():
    c = ONE + S_EXACT
    _, T = closed_loop(plant(2), c)
    assert abs(abs(T(1j)) - math.sqrt(2.0)) < 1e-12
    profile = cascade_gain([c] * 10, 2)
    assert profile.peak >= 2.0 ** 5, f"peak {profile.peak:.6f}"


def test_criterion_07_frequency_weighted_integral(certified_m4):
    value = middleton_integral(closed_loop(plant(1), ONE)[1])
    assert abs(value - (-math.pi / 2)) < 1e-3
    zoo = [
        (2, "1+s"),
        (2, "2+s"),
        (2, "1+2*s"),
        (2, "(1+s)/(2+s)"),
        (3, "(1+s)^2"),
    ]
    checked = 0
    for m, text in zoo:
        T = closed_loop(plant(m), parse_rational(text))[1]
        value = middleton_integral(T)
        assert value >= -1e-3, f"m={m} c={text}: {value:.6f}"
        checked += 1
    c4, _ = certified_m4
    value = middleton_integral(closed_loop(plant(4), c4)[1])
    assert value >= -1e-3, f"certified member: {value:.6f}"
    checked += 1
    assert checked >= 5


def test_criterion_08_certified_scaled_family(certified_m4):
    c, cert = certified_m4
    assert cert.peak <= 1.1, f"peak {cert.peak:.9f}"
    family = scaled_family(c, cert, 4, omega_bw=1.0, count=10)
    assert len(family) == 10
    omegas = logspace_samples(LogGrid(1.0, 1e6, 50)).tolist()
    for k in range(len(family)):
        _, Tk = closed_loop(plant(4), family_member(family, k))
        worst = max(math.log(abs(Tk(1j * om))) for om in omegas)
        assert worst <= 1e-12, f"member {k + 1}: log peak {worst:.3e}"
    max_product, ok = family_product_check(family)
    assert ok and max_product <= 1.1, f"product {max_product:.9f}"


def test_criterion_09_order_lifting(certified_m4):
    c4, _ = certified_m4
    c2 = lift_order(c4, 4, 2)
    assert closed_loop(plant(2), c2)[1] == closed_loop(plant(4), c4)[1]
    assert internal_stability(plant(2), c2) == closed_loop(plant(4), c4)[1]


def test_criterion_10_bezout_identity():
    one = Polynomial([1])
    for m in range(1, 17):
        data = youla_coprime(m)
        lhs = data.N * data.X + data.M * data.Y
        assert lhs == RationalFunction(one, one), f"m={m}"
        assert lhs.num == lhs.den == one, f"m={m}: not reduced to 1/1"


def test_criterion_11_deterministic_experiment(tmp_path):
    flags = ["pd-random", "--n", "10", "--kmin", "0.5", "--kmax", "2",
             "--trials", "20", "--seed", "42"]
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    blobs = []
    for out in outs:
        assert main(flags + ["--out", out]) == 0
        with open(os.path.join(out, "mistune.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    # sanity: the run actually produced per-trial rows
    assert blobs[0].decode().count("\n") == 21
    with open(os.path.join(outs[0], "report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert rep["parameters"]["trials"] == 20


def test_criterion_12_bode_lemma_identity():
    # the Bode bound holds for every length because
    # (s+2) P_m = 1 + (s+1)^(2m+1), P_m = 1 + s sum_{k=1..m} (s+1)^(2k-1);
    # P_m is built here from that definition, in exact arithmetic, and
    # matched to S_20's diagonal numerators N_mm = s P_m
    one, s, sp1 = Polynomial([1]), Polynomial([0, 1]), Polynomial([1, 1])
    S20 = sensitivity_matrix(20)
    series, odd = Polynomial([]), sp1  # sum_{k=1..m} (s+1)^(2k-1), (s+1)^(2m+1)
    for m in range(61):
        P = one + s * series
        assert (s + Polynomial([2])) * P == one + odd, f"m={m}"
        if m < 20:
            assert S20[m][m].num == s * P, f"m={m}"
        series = series + odd
        odd = odd * sp1 * sp1
