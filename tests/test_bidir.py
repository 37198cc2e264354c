"""Exact UL factorization, triangular inverses, length-invariant S_n."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from platoonctrl.bidir import (RationalMatrix, bode_table, build_structures,
                               invariance_check, invert_bidiagonal,
                               sensitivity_matrix, time_scale,
                               verify_factorization, _eye)
from platoonctrl.errors import (InvalidRange, NonPositiveScale,
                                SingularDiagonal, UnstableEntry)
from platoonctrl.freq import FrequencyGrid
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import RationalFunction, one, s

ONE = Polynomial([1])
S = Polynomial([0, 1])
SP1 = RationalFunction(ONE + S, ONE)
S_RF = RationalFunction(S, ONE)


def _closed_form(i: int, j: int) -> RationalFunction:
    # independent route: hand-derived S_n entry (1-based indices)
    acc = ONE
    for k in range(2, min(i, j) + 1):
        acc = acc + S * (ONE + S) ** (2 * k - 3)
    return RationalFunction(S * acc, (ONE + S) ** (i + j - 1))


# ---------------------------------------------------------------- structures

def test_structures_n1():
    st = build_structures(1)
    assert st.U.rows[0][0] == SP1
    assert st.L.rows[0][0] == S_RF
    assert st.H.rows[0][0] == one / s


def test_structures_n2():
    st = build_structures(2)
    assert [[f.num.coeffs and int(f.num.coeffs[0]) or 0 for f in row]
            for row in st.X.rows] == [[1, 0], [-1, 1]]
    assert st.H.rows[0][0] == RationalFunction(ONE + S, S * S)
    assert st.H.rows[1][1] == one / s
    assert st.U.rows[0][1] == RationalFunction(Polynomial([-1]), ONE)
    assert st.L.rows[0][0] == S_RF
    assert st.L.rows[1][1] == SP1


def test_bidiagonal_nonzero_counts():
    for n in (1, 4, 9):
        st = build_structures(n)
        for M in (st.U, st.L):
            nonzeros = sum(0 if f.num.is_zero else 1 for _, _, f in M.entries())
            assert nonzeros == 2 * n - 1


def test_structures_validation():
    with pytest.raises(InvalidRange):
        build_structures(0)


# ---------------------------------------------------------------- factorization

def test_factorization_small_and_deep():
    for n in range(1, 41):
        assert verify_factorization(n), f"identity failed at n={n}"


def test_factorization_entry_11_by_hand():
    # s^2 (1 + (s+1)/s^2 ) = s^2 + s + 1 must equal (U L)_11 = (s+1)s + 1
    st = build_structures(2)
    lhs = (_eye(2) + st.X @ st.H @ st.X.transpose()).rows[0][0] * RationalFunction(S * S, ONE)
    assert lhs == RationalFunction(Polynomial([1, 1, 1]), ONE)
    assert (st.U @ st.L).rows[0][0] == RationalFunction(Polynomial([1, 1, 1]), ONE)


# ---------------------------------------------------------------- inverses

def test_upper_inverse_closed_form():
    st = build_structures(2)
    ui = invert_bidiagonal(st.U, "upper")
    assert ui.rows[0][0] == one / SP1
    assert ui.rows[0][1] == one / (SP1 * SP1)
    assert ui.rows[1][0].num.is_zero
    assert ui.rows[1][1] == one / SP1


def test_lower_inverse_closed_form():
    st = build_structures(2)
    li = invert_bidiagonal(st.L, "lower")
    assert li.rows[0][0] == one / S_RF
    assert li.rows[1][0] == one / (S_RF * SP1)
    assert li.rows[0][1].num.is_zero
    assert li.rows[1][1] == one / SP1


def test_inverse_product_identity():
    for n in (1, 5, 12, 40):
        st = build_structures(n)
        assert st.U @ invert_bidiagonal(st.U, "upper") == _eye(n)
        assert st.L @ invert_bidiagonal(st.L, "lower") == _eye(n)


def test_diagonal_only_inverse():
    d = RationalMatrix(((SP1, RationalFunction(Polynomial([]), ONE)),
                        (RationalFunction(Polynomial([]), ONE), S_RF)))
    inv = invert_bidiagonal(d, "upper")
    assert inv.rows[0][0] == one / SP1
    assert inv.rows[1][1] == one / S_RF


def test_inverse_rejects_singular_and_misshapen():
    zero = RationalFunction(Polynomial([]), ONE)
    with pytest.raises(SingularDiagonal):
        invert_bidiagonal(RationalMatrix(((zero,),)), "upper")
    full = RationalMatrix(((SP1, SP1), (SP1, SP1)))
    with pytest.raises(InvalidRange):
        invert_bidiagonal(full, "upper")
    with pytest.raises(InvalidRange):
        invert_bidiagonal(RationalMatrix(((SP1, SP1),)), "upper")
    with pytest.raises(InvalidRange):
        invert_bidiagonal(build_structures(2).U, "diagonal")


# ---------------------------------------------------------------- sensitivity matrix

def test_sensitivity_known_entries():
    assert sensitivity_matrix(1).rows[0][0] == s / (one + s)
    S2 = sensitivity_matrix(2)
    assert S2.rows[0][1] == RationalFunction(S, (ONE + S) ** 2)
    assert S2.rows[1][1] == RationalFunction(S * Polynomial([1, 1, 1]), (ONE + S) ** 3)


def test_sensitivity_closed_form_oracle():
    for n in (1, 3, 8):
        Sn = sensitivity_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert Sn.rows[i - 1][j - 1] == _closed_form(i, j), f"entry ({i},{j}) of S_{n}"


def test_sensitivity_leading_entry_all_n():
    target = s / (one + s)
    for n in range(1, 21):
        assert sensitivity_matrix(n).rows[0][0] == target


def test_sensitivity_is_the_exact_inverse():
    for n in range(1, 13):
        st = build_structures(n)
        A = _eye(n) + st.X @ st.H @ st.X.transpose()
        assert A @ sensitivity_matrix(n) == _eye(n), f"inverse identity failed at n={n}"


def test_sensitivity_poles_only_at_minus_one():
    for n in (1, 7, 14, 20):
        for _, _, f in sensitivity_matrix(n).entries():
            assert f.den == (ONE + S) ** f.den.degree, f"unexpected pole factor in {f.den.coeffs}"


def test_sensitivity_numeric_inversion_oracle():
    n = 8
    Sn = sensitivity_matrix(n)
    st = build_structures(n)
    rng = np.random.default_rng(1234)
    omegas = 10.0 ** rng.uniform(-3, 3, size=20)
    for om in omegas:
        z = 1j * om
        X = np.zeros((n, n), dtype=complex)
        H = np.zeros((n, n), dtype=complex)
        for i, j, f in st.X.entries():
            if not f.num.is_zero:
                X[i, j] = f(z)
        for i in range(n):
            H[i, i] = st.H.rows[i][i](z)
        dense = np.linalg.inv(np.eye(n) + X @ H @ X.T)
        sym = np.array([[Sn.rows[i][j](z) for j in range(n)] for i in range(n)])
        rel = np.abs(sym - dense) / np.maximum(np.abs(dense), 1e-300)
        assert rel.max() <= 1e-9, f"numeric oracle disagrees at omega={om}"


# ---------------------------------------------------------------- invariance

def test_invariance_blocks():
    assert invariance_check(1, range(1, 21))
    assert invariance_check(2, range(2, 21))
    assert invariance_check(10, [10, 15, 20])


def test_invariance_validation():
    with pytest.raises(InvalidRange):
        invariance_check(0, [1, 2])
    with pytest.raises(InvalidRange):
        invariance_check(3, [2, 3])
    with pytest.raises(InvalidRange):
        invariance_check(1, [])


# ---------------------------------------------------------------- time scaling

def test_time_scale_identity_and_shift():
    S1 = sensitivity_matrix(1)
    assert time_scale(S1, 1) == S1
    assert time_scale(S1, 10).rows[0][0] == RationalFunction(S, Polynomial([10, 1]))
    with pytest.raises(NonPositiveScale):
        time_scale(S1, 0)
    with pytest.raises(NonPositiveScale):
        time_scale(S1, -2)


def test_time_scale_magnitude_substitution():
    S2 = sensitivity_matrix(2)
    scaled = time_scale(S2, 4)
    rng = np.random.default_rng(8)
    for om in 10.0 ** rng.uniform(-2, 2, size=10):
        for i in range(2):
            for j in range(2):
                lhs = abs(scaled.rows[i][j](1j * om))
                rhs = abs(S2.rows[i][j](1j * om / 4))
                assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------- Bode sweep

def test_bode_verdict_and_reference_entry():
    grid = FrequencyGrid(1e-2, 1e2, 25)
    table = bode_table(sensitivity_matrix(5), grid)
    assert table.bound_ok
    assert table.worst_excess <= 1e-9
    # entry (1,1) is the reference itself
    ref = grid.omegas / np.sqrt(1.0 + grid.omegas ** 2)
    assert np.max(np.abs(np.exp(table.log_magnitudes[0, 0]) - ref)) < 1e-12


def test_bode_hand_value_s2():
    table = bode_table(sensitivity_matrix(2), FrequencyGrid(0.1, 10, 10))
    # |(S_2)_22(j)| = 1/(2 sqrt 2): find the omega=1 sample
    idx = int(np.argmin(np.abs(table.grid.omegas - 1.0)))
    assert table.grid.omegas[idx] == pytest.approx(1.0, rel=1e-12)
    val = math.exp(table.log_magnitudes[1, 1, idx])
    assert val == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-9)
    assert val <= 1 / math.sqrt(2)


def test_bode_csv_order():
    table = bode_table(sensitivity_matrix(2), FrequencyGrid(0.5, 2.0, 2))
    lines = table.to_csv().splitlines()
    assert lines[0] == "omega,row,col,abs,abs_db"
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert (first[1], first[2]) == ("1", "1")
    assert (second[1], second[2]) == ("1", "2"), "col varies fastest"
    n_samples = len(table.grid.omegas)
    assert len(lines) == 1 + 4 * n_samples


def test_bode_rejects_unstable_entry():
    bad = RationalMatrix(((one / (s - one),),))
    with pytest.raises(UnstableEntry):
        bode_table(bad, FrequencyGrid(0.1, 10, 5))
    improper = RationalMatrix((((s * s) / (one + s),),))
    with pytest.raises(UnstableEntry):
        bode_table(improper, FrequencyGrid(0.1, 10, 5))


# ---------------------------------------------------------------- matrix basics

def test_matrix_shape_guards():
    with pytest.raises(InvalidRange):
        RationalMatrix(())
    with pytest.raises(InvalidRange):
        RationalMatrix(((one,), (one, one)))
    a = _eye(2)
    with pytest.raises(InvalidRange):
        a @ _eye(3)
    with pytest.raises(InvalidRange):
        a + _eye(3)


def test_matrix_transpose_and_eq():
    st = build_structures(3)
    assert st.U.transpose().transpose() == st.U
    assert st.X.transpose().rows[0][1] == st.X.rows[1][0]
    assert _eye(3) @ st.U == st.U
