"""Exact UL factorization, triangular inverses, length-invariant S_n."""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from platoonctrl import bidir
from platoonctrl.bidir import (_lemma_matrices, bode_table, sensitivity_matrix,
                               verify_factorization)
from platoonctrl.errors import InvalidRange
from platoonctrl.poly import Polynomial
from platoonctrl.ratfun import RationalFunction, one, s

from oracles import (SingularDiagonal, _verify_sensitivity, avx512_dispatch_targets,
                     bode_csv_per_entry, bode_rows_by_engine, bode_rows_numpy, eye,
                     invariance_check, invert_bidiagonal, lemma_structures, mat_add, matmul,
                     transpose)

ONE = Polynomial([1])
S = Polynomial([0, 1])
SP1 = RationalFunction(ONE + S, ONE)
S_RF = RationalFunction(S, ONE)


def _times_s2(M):
    s2 = RationalFunction(S * S, ONE)
    return tuple(tuple(f * s2 for f in row) for row in M)


def _factorization_holds(X, H, U, L) -> bool:
    # oracle: s^2 (I + X H X^T) == U L in canonical rational-matrix products
    lhs = mat_add(eye(len(X)), matmul(X, H, transpose(X)))
    return _times_s2(lhs) == matmul(U, L)


def _sensitivity_by_matmul(Sn) -> bool:
    # oracle: L_n S U_n == s^2 I_n in canonical rational-matrix products
    _, _, U, L = lemma_structures(len(Sn))
    return matmul(L, Sn, U) == _times_s2(eye(len(Sn)))


def _integer_route_accepts(Sn) -> bool:
    try:
        _verify_sensitivity(Sn)
    except ArithmeticError:
        return False
    return True


def _replace_entry(M, i: int, j: int, f: RationalFunction):
    rows = [list(r) for r in M]
    rows[i][j] = f
    return tuple(tuple(r) for r in rows)


def _entries(M):
    return ((i, j, f) for i, row in enumerate(M) for j, f in enumerate(row))


def _cleared(M, factor: Polynomial = ONE):
    # the nonzero entries of factor * M as {(i, j): Polynomial}; each must be
    # a polynomial
    out = {}
    for i, j, f in _entries(M):
        if f.num.is_zero:
            continue
        q, r = divmod(f.num * factor, f.den)
        assert r.is_zero, (i, j)
        out[i, j] = q
    return out


def _closed_form(i: int, j: int) -> RationalFunction:
    # independent route: hand-derived S_n entry (1-based indices)
    acc = ONE
    for k in range(2, min(i, j) + 1):
        acc = acc + S * (ONE + S) ** (2 * k - 3)
    return RationalFunction(S * acc, (ONE + S) ** (i + j - 1))


# ---------------------------------------------------------------- structures

def test_structures_n1():
    # X = 1, s^2 H = s (the last loop), U = s+1, L = s
    assert _lemma_matrices(1) == ({(0, 0): ONE}, {(0, 0): S},
                                  {(0, 0): ONE + S}, {(0, 0): S})


def test_structures_n2():
    X, s2H, U, L = _lemma_matrices(2)
    assert X == {(0, 0): ONE, (1, 0): -ONE, (1, 1): ONE}
    assert s2H == {(0, 0): ONE + S, (1, 1): S}
    assert U == {(0, 0): ONE + S, (0, 1): -ONE, (1, 1): ONE + S}
    assert L == {(0, 0): S, (1, 0): -ONE, (1, 1): ONE + S}


def test_bidiagonal_nonzero_counts():
    for n in (1, 4, 9):
        X, s2H, U, L = _lemma_matrices(n)
        assert len(X) == len(U) == len(L) == 2 * n - 1
        assert len(s2H) == n


def test_structures_validation():
    with pytest.raises(InvalidRange):
        _lemma_matrices(0)
    with pytest.raises(InvalidRange):
        verify_factorization(0)


def test_lemma_matrices_are_the_rational_structures_cleared():
    # the polynomial matrices the factorization is checked on are X_n,
    # s^2 H_n, U_n and L_n as displayed, with the denominators cleared
    for n in range(1, 41):
        X, H, U, L = lemma_structures(n)
        assert _lemma_matrices(n) == (_cleared(X), _cleared(H, S * S),
                                      _cleared(U), _cleared(L)), f"n={n}"


# ---------------------------------------------------------------- factorization

def test_factorization_small_and_deep():
    for n in range(1, 41):
        assert verify_factorization(n), f"identity failed at n={n}"


def test_factorization_agrees_with_matmul_oracle():
    for n in range(1, 11):
        assert verify_factorization(n) is True
        assert _factorization_holds(*lemma_structures(n)) is True


def test_factorization_rejects_wrong_diagonal(monkeypatch):
    # L_33 = s where s+1 belongs, in both routes; it lies in the length-3
    # matrices that decide every n >= 3
    X, H, U, L = lemma_structures(4)
    assert not _factorization_holds(X, H, U, _replace_entry(L, 2, 2, S_RF))
    real = bidir._lemma_matrices

    def broken(n):
        iX, is2H, iU, iL = real(n)
        return iX, is2H, iU, {**iL, (2, 2): S}

    monkeypatch.setattr(bidir, "_lemma_matrices", broken)
    assert verify_factorization(4) is False
    assert verify_factorization(10 ** 5) is False


def _row_class_map(M, n: int):
    # {(row class, j - i): entry} over M's nonzero entries; every row of a
    # class must give the same entry at each offset
    out = {}
    for (i, j), c in M.items():
        key = ("first" if i == 0 else "last" if i == n - 1 else "middle", j - i)
        assert out.setdefault(key, c) == c, (n, i, j)
    return out


def test_factorization_entries_depend_on_row_class_and_offset_only():
    # the premise of verify_factorization's proof: past n = 3 neither side
    # has an entry that length 3 does not
    lhs3, rhs3 = bidir._factorization_sides(3)
    assert lhs3 == rhs3
    want = _row_class_map(lhs3, 3)
    assert len(want) == 7
    for n in range(3, 61):
        lhs, rhs = bidir._factorization_sides(n)
        assert _row_class_map(lhs, n) == _row_class_map(rhs, n) == want, f"n={n}"
        assert lhs == rhs, f"n={n}"


def test_factorization_holds_at_each_length_by_sparse_product():
    # the per-length oracle: the full sparse product at every n
    for n in list(range(1, 61)) + [1000]:
        lhs, rhs = bidir._factorization_sides(n)
        assert lhs == rhs, f"n={n}"
        assert len(lhs) == 3 * n - 2


def test_factorization_builds_at_most_three_vehicles(monkeypatch, call_counts):
    lengths = []
    real = bidir._lemma_matrices
    monkeypatch.setattr(bidir, "_lemma_matrices", lambda n: lengths.append(n) or real(n))
    counts = call_counts("_lemma_matrices", "_matmul")
    for n in (1, 2, 3, 4, 10 ** 5):
        assert verify_factorization(n) is True
    assert lengths == [1, 2, 3, 3, 3]
    assert counts["_lemma_matrices"] == 5 and counts["_matmul"] == 15


def test_factorization_entry_11_by_hand():
    # s^2 (1 + (s+1)/s^2 ) = s^2 + s + 1 must equal (U L)_11 = (s+1)s + 1
    X, H, U, L = lemma_structures(2)
    lhs = mat_add(eye(2), matmul(X, H, transpose(X)))[0][0] \
        * RationalFunction(S * S, ONE)
    assert lhs == RationalFunction(Polynomial([1, 1, 1]), ONE)
    assert matmul(U, L)[0][0] == RationalFunction(Polynomial([1, 1, 1]), ONE)


# ---------------------------------------------------------------- inverses

def test_upper_inverse_closed_form():
    _, _, U, _ = lemma_structures(2)
    ui = invert_bidiagonal(U, "upper")
    assert ui[0][0] == one / SP1
    assert ui[0][1] == one / (SP1 * SP1)
    assert ui[1][0].num.is_zero
    assert ui[1][1] == one / SP1


def test_lower_inverse_closed_form():
    _, _, _, L = lemma_structures(2)
    li = invert_bidiagonal(L, "lower")
    assert li[0][0] == one / S_RF
    assert li[1][0] == one / (S_RF * SP1)
    assert li[0][1].num.is_zero
    assert li[1][1] == one / SP1


def test_inverse_product_identity():
    for n in (1, 5, 12, 40):
        _, _, U, L = lemma_structures(n)
        assert matmul(U, invert_bidiagonal(U, "upper")) == eye(n)
        assert matmul(L, invert_bidiagonal(L, "lower")) == eye(n)


def test_diagonal_only_inverse():
    d = ((SP1, RationalFunction(Polynomial([]), ONE)),
         (RationalFunction(Polynomial([]), ONE), S_RF))
    inv = invert_bidiagonal(d, "upper")
    assert inv[0][0] == one / SP1
    assert inv[1][1] == one / S_RF


def test_inverse_rejects_singular_and_misshapen():
    zero = RationalFunction(Polynomial([]), ONE)
    with pytest.raises(SingularDiagonal):
        invert_bidiagonal(((zero,),), "upper")
    full = ((SP1, SP1), (SP1, SP1))
    with pytest.raises(InvalidRange):
        invert_bidiagonal(full, "upper")
    with pytest.raises(InvalidRange):
        invert_bidiagonal(((SP1, SP1),), "upper")
    with pytest.raises(InvalidRange):
        invert_bidiagonal(lemma_structures(2)[2], "diagonal")


# ---------------------------------------------------------------- sensitivity matrix

def test_sensitivity_known_entries():
    assert sensitivity_matrix(1)[0][0] == s / (one + s)
    S2 = sensitivity_matrix(2)
    assert S2[0][1] == RationalFunction(S, (ONE + S) ** 2)
    assert S2[1][1] == RationalFunction(S * Polynomial([1, 1, 1]), (ONE + S) ** 3)


def test_sensitivity_closed_form_oracle():
    for n in (1, 3, 8):
        Sn = sensitivity_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert Sn[i - 1][j - 1] == _closed_form(i, j), f"entry ({i},{j}) of S_{n}"


def test_sensitivity_stores_each_entry_without_a_gcd(call_counts):
    # each numerator is -1 at s = -1, the monic denominator's one root, so
    # the pairs are stored as built; they are the constructor's canonical form
    counts = call_counts("poly_gcd")
    ns = range(1, 13)
    built = [sensitivity_matrix(n) for n in ns]
    assert counts["poly_gcd"] == 0
    for Sn in built:
        assert Sn == tuple(tuple(RationalFunction(f.num, f.den) for f in row) for row in Sn)
    assert counts["poly_gcd"] == sum(n * n for n in ns)


def test_sensitivity_matches_bidiagonal_inverse_oracle():
    # the substitution route: s^2 L_n^{-1} U_n^{-1}, entry for entry
    s2 = RationalFunction(S * S, ONE)
    for n in range(1, 13):
        _, _, U, L = lemma_structures(n)
        oracle = matmul(invert_bidiagonal(L, "lower"), invert_bidiagonal(U, "upper"))
        Sn = sensitivity_matrix(n)
        for i, j, f in _entries(oracle):
            assert Sn[i][j] == f * s2, f"entry ({i + 1},{j + 1}) of S_{n}"


def test_sensitivity_closed_form_large_n():
    n = 30
    Sn = sensitivity_matrix(n)
    for i, j in [(1, 1), (1, n), (n, 1), (n, n)] + [(k, k) for k in range(1, n + 1)]:
        assert Sn[i - 1][j - 1] == _closed_form(i, j), f"entry ({i},{j}) of S_{n}"


def test_sensitivity_verification_rejects_perturbed_entry():
    Sn = sensitivity_matrix(3)
    _verify_sensitivity(Sn)
    bad = _replace_entry(Sn, 1, 2, Sn[1][2] + RationalFunction(ONE, (ONE + S) ** 5))
    with pytest.raises(ArithmeticError, match="construction bug"):
        _verify_sensitivity(bad)


def test_sensitivity_verification_rejects_perturbed_numerator():
    # N_23 + s over the same (s+1)^4: the denominator check passes, the
    # cleared identity must not
    Sn = sensitivity_matrix(3)
    f = Sn[1][2]
    bad = _replace_entry(Sn, 1, 2, RationalFunction(f.num + S, f.den))
    assert bad[1][2].den == f.den
    with pytest.raises(ArithmeticError, match="construction bug"):
        _verify_sensitivity(bad)


def test_sensitivity_verification_rejects_wrong_denominator_power():
    Sn = sensitivity_matrix(3)
    f = Sn[2][0]
    for den in (f.den * (ONE + S), f.den // (ONE + S)):
        with pytest.raises(ArithmeticError, match="construction bug"):
            _verify_sensitivity(_replace_entry(Sn, 2, 0, RationalFunction(f.num, den)))


def test_sensitivity_verification_rejects_fractional_numerator():
    Sn = sensitivity_matrix(2)
    f = Sn[0][0]
    with pytest.raises(ArithmeticError, match="construction bug"):
        _verify_sensitivity(_replace_entry(Sn, 0, 0, RationalFunction(f.num * Fraction(1, 2), f.den)))


def test_sensitivity_verification_agrees_with_matmul_oracle():
    for n in range(1, 11):
        Sn = sensitivity_matrix(n)
        f, g = Sn[n - 1][n // 2], Sn[n // 2][n - 1]
        cases = [Sn,
                 _replace_entry(Sn, n - 1, n // 2, RationalFunction(f.num + S * S, f.den)),
                 _replace_entry(Sn, n // 2, n - 1, g * RationalFunction(ONE, ONE + S))]
        verdicts = [(_integer_route_accepts(M), _sensitivity_by_matmul(M)) for M in cases]
        assert verdicts[0] == (True, True), f"S_{n} rejected"
        assert verdicts[1:] == [(False, False)] * 2, f"perturbed S_{n} accepted"


def test_sensitivity_passes_the_per_length_oracle():
    for n in range(1, 41):
        _verify_sensitivity(sensitivity_matrix(n))


def test_sensitivity_numerators_sum_the_geometric_series():
    # (s+2) N_m = s (1 + (s+1)^(2m+1)), so N_m(-1) = -1: no numerator shares
    # the denominators' one root
    Sn = sensitivity_matrix(60)
    for m in range(60):
        N = Sn[m][m].num
        assert (S + 2) * N == S * (ONE + (ONE + S) ** (2 * m + 1)), f"m={m}"
        assert N(-1) == -1, f"m={m}"


def test_sensitivity_runs_no_polynomial_product(call_counts):
    counts = call_counts("_convolve", "poly_gcd")
    assert len(sensitivity_matrix(80)) == 80
    assert (counts["_convolve"], counts["poly_gcd"]) == (0, 0)


def test_sensitivity_leading_entry_all_n():
    target = s / (one + s)
    for n in range(1, 21):
        assert sensitivity_matrix(n)[0][0] == target


def test_sensitivity_is_the_exact_inverse():
    for n in range(1, 13):
        X, H, _, _ = lemma_structures(n)
        A = mat_add(eye(n), matmul(X, H, transpose(X)))
        assert matmul(A, sensitivity_matrix(n)) == eye(n), f"inverse identity failed at n={n}"


def test_sensitivity_poles_only_at_minus_one():
    for n in (1, 7, 14, 20):
        for _, _, f in _entries(sensitivity_matrix(n)):
            assert f.den == (ONE + S) ** f.den.degree, f"unexpected pole factor in {f.den.coeffs}"


def test_sensitivity_numeric_inversion_oracle():
    n = 8
    Sn = sensitivity_matrix(n)
    Xr, Hr, _, _ = lemma_structures(n)
    rng = np.random.default_rng(1234)
    omegas = 10.0 ** rng.uniform(-3, 3, size=20)
    for om in omegas:
        z = 1j * om
        X = np.zeros((n, n), dtype=complex)
        H = np.zeros((n, n), dtype=complex)
        for i, j, f in _entries(Xr):
            if not f.num.is_zero:
                X[i, j] = f(z)
        for i in range(n):
            H[i, i] = Hr[i][i](z)
        dense = np.linalg.inv(np.eye(n) + X @ H @ X.T)
        sym = np.array([[Sn[i][j](z) for j in range(n)] for i in range(n)])
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


# ---------------------------------------------------------------- Bode sweep

def _bode_entry(table, i, j):
    # ln|S_ij| over the samples, 0-based, as to_csv sums it; the rows are
    # array('d'), whose + concatenates
    return np.asarray(table.rows[min(i, j)]) + np.asarray(table.rows[table.n + i + j])


def _exact_log_abs(i, j, w):
    """ln|S_ij(jw)| for a rational w, from the definition of N_m in Fractions.

    S_ij = N_m / (s+1)^(i+j+1), m = min(i, j), N_m = s (1 + s sum_{k=1..m}
    (s+1)^(2k-1)); complex values are (re, im) pairs of Fractions.
    """
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    z, zp1 = (Fraction(0), w), (Fraction(1), w)
    sq, odd, total = mul(zp1, zp1), zp1, (Fraction(0), Fraction(0))
    for _ in range(min(i, j)):
        total = (total[0] + odd[0], total[1] + odd[1])
        odd = mul(odd, sq)
    st = mul(z, total)
    num = mul(z, (1 + st[0], st[1]))
    mag2 = (num[0] ** 2 + num[1] ** 2) / (1 + w * w) ** (i + j + 1)
    return (math.log(mag2.numerator) - math.log(mag2.denominator)) / 2


def test_bode_verdict_and_reference_entry():
    table = bode_table(5, 1e-2, 1e2, 25)
    assert table.worst_excess <= 1e-9
    # entry (1,1) is the reference itself
    om = np.asarray(table.omegas)
    ref = om / np.sqrt(1.0 + om ** 2)
    assert np.max(np.abs(np.exp(_bode_entry(table, 0, 0)) - ref)) < 1e-12


def test_bode_hand_value_s2():
    table = bode_table(2, 0.1, 10, 10)
    # |(S_2)_22(j)| = 1/(2 sqrt 2): find the omega=1 sample
    idx = int(np.argmin(np.abs(np.asarray(table.omegas) - 1.0)))
    assert table.omegas[idx] == pytest.approx(1.0, rel=1e-12)
    val = math.exp(_bode_entry(table, 1, 1)[idx])
    assert val == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-9)
    assert val <= 1 / math.sqrt(2)


def test_bode_csv_order():
    table = bode_table(2, 0.5, 2.0, 2)
    lines = "".join(table.to_csv()).splitlines()
    assert lines[0] == "omega,row,col,abs,abs_db"
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert (first[1], first[2]) == ("1", "1")
    assert (second[1], second[2]) == ("1", "2"), "col varies fastest"
    n_samples = len(table.omegas)
    assert len(lines) == 1 + 4 * n_samples


def test_bode_bound_past_square_overflow():
    # om * om overflows past ~1.34e154; the reference there is exactly 1.0
    table = bode_table(2, 1e-3, 1e200, 2)
    assert table.worst_excess <= 1e-9
    ref = np.exp(_bode_entry(table, 0, 0))
    assert ref[-1] == 1.0


def test_bode_grid_agrees_with_the_lemma_n12():
    # the default bode grid, 1e-3..1e3 at 100 points per decade
    assert bode_table(12, 1e-3, 1e3, 100).worst_excess <= 1e-9


def test_bode_grid_agrees_with_the_lemma_n200():
    # the magnitude engine's Horner on S_n's coefficients broke the bound
    # from n = 50 on (an excess of 22.8 at n = 80); the closed form does not
    assert bode_table(200, 1e-3, 1e3, 100).worst_excess <= 1e-9


def test_bode_rows_match_exact_values_n200():
    n = 200
    for sweep in ((0.3, 50, 1), (1, 3.63, 1)):
        table = bode_table(n, *sweep)
        for i, j in ((51, 51), (78, 78), (59, 69), (199, 199)):
            got = _bode_entry(table, i, j)
            for w in (0, -1):
                want = _exact_log_abs(i, j, Fraction(table.omegas[w]))
                assert abs(got[w] - want) <= 1e-11, (i, j, table.omegas[w])


def test_bode_rows_agree_with_the_engine():
    # the generic route, exact S_n entries through the magnitude engine,
    # loses about m bits to cancellation; up to n = 20 it is still within 1e-9
    for n in (1, 2, 7, 20):
        for sweep in ((1e-3, 1e3, 100), (1e-6, 1e6, 7)):
            table = bode_table(n, *sweep)
            rows = np.array(table.rows)
            assert rows.shape == (3 * n - 1, len(table.omegas))
            assert np.abs(rows - bode_rows_by_engine(n, table.omegas)).max() <= 1e-9, \
                f"n={n} {sweep}"


# the grids bode.csv was checked on byte for byte against the numpy route,
# and one whose endpoints share their log10, where np.linspace's step is 0
_NUMPY_SWEEPS = [(12, 1e-3, 1e3, 100), (20, 1e-4, 1e4, 200), (3, 1e-300, 1e300, 1),
                 (1, 0.5, 2.0, 3), (80, 1e-3, 1e3, 2),
                 (2, 1e300, math.nextafter(1e300, math.inf), 1)]

_BITS_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from oracles import avx512_dispatched
from test_bidir import _bode_bits_agree
print(json.dumps({"avx512": avx512_dispatched(),
                  "agree": _bode_bits_agree(json.loads(sys.argv[2]))}))
"""


def _bode_bits_agree(sweeps):
    """Per sweep, whether bode_table's samples, rows and worst_excess are the
    numpy oracle's bit for bit."""
    agree = []
    for sweep in sweeps:
        table = bode_table(*sweep)
        om, rows, worst = bode_rows_numpy(*sweep)
        agree.append(table.omegas.tobytes() == om.tobytes()
                     and b"".join(r.tobytes() for r in table.rows) == rows.tobytes()
                     and table.worst_excess == worst)
    return agree


def test_bode_agrees_with_the_numpy_oracle():
    # numpy's AVX-512 loops, where they run, round differently from libm in
    # the last bit; the samples agree relatively, across 600 decades
    for sweep in _NUMPY_SWEEPS:
        table = bode_table(*sweep)
        om, rows, worst = bode_rows_numpy(*sweep)
        assert np.all(np.abs(np.asarray(table.omegas) - om) <= 1e-12 * om), sweep
        assert np.abs(np.array(table.rows) - rows).max() <= 1e-12, sweep
        assert abs(table.worst_excess - worst) <= 1e-12, sweep


def test_bode_is_the_numpy_oracle_bit_for_bit_without_avx512():
    # libm's log, exp, expm1, log1p, atan, cos and pow are numpy's float64
    # loops bit for bit once its AVX-512 targets are off, which only a fresh
    # interpreter can do
    targets = avx512_dispatch_targets()
    if not targets:
        assert _bode_bits_agree(_NUMPY_SWEEPS) == [True] * len(_NUMPY_SWEEPS)
        return
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    src = str(pathlib.Path(bidir.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BITS_CHILD, str(pathlib.Path(__file__).parent),
                           json.dumps(_NUMPY_SWEEPS)],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"avx512": False, "agree": [True] * len(_NUMPY_SWEEPS)}


def test_bode_builds_no_sensitivity_matrix_and_runs_no_engine(call_counts):
    # the lemma needs no Routh test, and its closed form needs neither S_n
    # nor cascade's float engine
    counts = call_counts("sensitivity_matrix", "_trial_peaks", "hurwitz_stable")
    bode_table(12, 1e-2, 1e2, 5)
    assert (counts["sensitivity_matrix"], counts["_trial_peaks"],
            counts["hurwitz_stable"]) == (0, 0, 0)


# ---------------------------------------------------------------- matrix basics

def test_matrix_shape_guards():
    a = eye(2)
    with pytest.raises(InvalidRange):
        matmul(a, eye(3))
    with pytest.raises(InvalidRange):
        mat_add(a, eye(3))


def test_matrix_transpose_and_eq():
    X, _, U, _ = lemma_structures(3)
    assert transpose(transpose(U)) == U
    assert transpose(X)[0][1] == X[1][0]
    assert matmul(eye(3), U) == U


def test_bode_csv_matches_per_entry_formatter():
    # to_csv formats each omega and each distinct entry of the symmetric
    # table once, in chunks of whole omegas or whole rows; the text must be
    # the per-entry formatter's byte for byte, across chunk boundaries too
    for n, *sweep in ((1, 1e-2, 1e2, 3), (3, 1e-3, 1e3, 2), (12, 0.1, 10.0, 4),
                      (3, 1e-300, 1e300, 1), (1, 1e-3, 1e3, 1000), (5, 1e-3, 1e3, 100),
                      (70, 0.5, 2.0, 2)):
        table = bode_table(n, *sweep)
        assert "".join(table.to_csv()) == bode_csv_per_entry(table), f"n={n}"
