"""Bidirectional architecture: the exact UL route to length invariance.

The closed-loop sensitivity of the n-vehicle bidirectional design is
S_n = (I + X_n H_n X_n^T)^{-1}. The whole point of the construction is that
I + X_n H_n X_n^T factors exactly as (1/s^2) U_n L_n with U_n, L_n
bidiagonal, so S_n = s^2 L_n^{-1} U_n^{-1}. That product has a closed form
whose entries do not depend on n, so the leading blocks of S_n do not change
as vehicles are appended. Both identities are proven for every n, with the
denominators cleared. Each entry of the factorization depends only on its
row's class (first, middle or last) and its offset j - i, so one exact
check of the sparse polynomial matrices at length min(n, 3) decides every
length (`verify_factorization`). L_n S_n U_n = s^2 I_n telescopes to the
closed form's definition as a partial sum, so `sensitivity_matrix` builds
S_n from it and checks nothing. Everything here is exact but the Bode
sweep (`bode_table`), which tabulates a bound a lemma proves for every
length by evaluating the lemma's closed form in floats, without S_n.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Tuple

from .errors import InvalidRange
from .freq import LogGrid
from .poly import Polynomial
from .ratfun import RationalFunction

_DB = 20.0 / math.log(10.0)
_ZERO = Polynomial()
_ONE = Polynomial([1])
_S = Polynomial([0, 1])
_SP1 = Polynomial([1, 1])


def _lemma_matrices(n: int):
    """X_n, s^2 H_n, U_n and L_n as sparse {(i, j): Polynomial} matrices.

    X_n: 1 on the diagonal, -1 on the subdiagonal. H_n: diagonal
    ((s+1)/s^2, ..., (s+1)/s^2, 1/s), the last loop differing, so s^2 H_n is
    diag(s+1, ..., s+1, s). U_n: s+1 on the diagonal, -1 on the
    superdiagonal. L_n: diagonal (s, s+1, ..., s+1), -1 on the subdiagonal.
    Zero entries are left out.
    """
    if n < 1:
        raise InvalidRange("n must be >= 1")
    X, s2H, U, L = {}, {}, {}, {}
    for i in range(n):
        X[i, i] = _ONE
        s2H[i, i] = _S if i == n - 1 else _SP1
        U[i, i] = _SP1
        L[i, i] = _S if i == 0 else _SP1
        if i:
            X[i, i - 1] = U[i - 1, i] = L[i, i - 1] = -_ONE
    return X, s2H, U, L


def _matmul(A, B):
    # sparse product of {(i, j): Polynomial} matrices, zero entries left out
    cols = {}
    for (k, j), b in B.items():
        cols.setdefault(k, []).append((j, b))
    out = {}
    for (i, k), a in A.items():
        for j, b in cols.get(k, ()):
            # the first term of an entry is stored, not added to zero
            ab = a * b
            out[i, j] = out[i, j] + ab if (i, j) in out else ab
    return {ij: c for ij, c in out.items() if not c.is_zero}


def _factorization_sides(n: int):
    """s^2 I + X (s^2 H) X^T and U L at length n, zero entries left out."""
    X, s2H, U, L = _lemma_matrices(n)
    lhs = _matmul(_matmul(X, s2H), {(j, i): c for (i, j), c in X.items()})
    s2 = _S * _S
    for i in range(n):
        lhs[i, i] = lhs.get((i, i), _ZERO) + s2
    return {ij: c for ij, c in lhs.items() if not c.is_zero}, _matmul(U, L)


def verify_factorization(n: int) -> bool:
    """Exact test of s^2 (I + X_n H_n X_n^T) == U_n L_n, for length n.

    Both sides are tridiagonal. With the denominators cleared, entry (i, j)
    of s^2 I + X (s^2 H) X^T sums X_ik h_k X_jk over k in
    {i-1, i} & {j-1, j}, and entry (i, j) of U L sums U_ik L_kj over k in
    {i, i+1} & {j, j+1}, k in 0..n-1 on both sides. Each factor is fixed by
    k - i, j - k and whether k is 0 or n-1 (h_k = s only at k = n-1,
    L_kk = s only at k = 0). For each offset j - i in {-1, 0, 1}, whether
    j and each k among i-1, i, i+1 lie in 0..n-1, and which of those k are
    0 or n-1, depends only on whether i = 0 and whether i = n-1, the row's
    class. So every entry is one function of the row's class and j - i,
    the same for every n. Length 1
    has the one class that is first and last; length 3 has first, middle
    and last, which are all the classes of any n >= 2. The cleared identity
    at length min(n, 3), checked in exact sparse polynomial products on
    `_lemma_matrices`, is therefore the identity at n.
    """
    lhs, rhs = _factorization_sides(min(n, 3))
    return lhs == rhs


def sensitivity_matrix(n: int) -> Tuple[Tuple[RationalFunction, ...], ...]:
    """S_n = s^2 L_n^{-1} U_n^{-1}, fully canonical, as a tuple of row tuples.

    Entry (i, j), 0-based, is N_m / (s+1)^(i+j+1) with m = min(i, j),
    N_0 = s and N_m - N_(m-1) = s^2 (s+1)^(2m-1), so
    N_m = s (1 + s sum_{k=1..m} (s+1)^(2k-1)): the numerator is a sum of
    binomial rows, the denominator the binomial row of (s+1)^(i+j+1).

    That is S_n for every n. With the denominators cleared,
    (L_n S_n U_n)_ij = delta_ij s^2 reads
    l_i D_ij - (s+1) D_(i-1)j == delta_ij s^2 (s+1)^(2i), where
    D_ij = N_ij - N_i(j-1) with N_ij = N_min(i,j), l_0 = s, l_i = s+1
    otherwise, and N is zero outside the matrix. For i < j both
    differences are 0, since min(i, j) = min(i, j-1). For i > j they are equal and l_i = s+1. On
    the diagonal D_(i-1)i = 0, and l_i D_ii = s^2 (s+1)^(2i) is N's
    definition. Summing the geometric series gives
    (s+2) N_m = s (1 + (s+1)^(2m+1)), `bode_table`'s lemma (N_m = s P_m).
    At s = -1 that gives N_m(-1) = -1, nonzero at the monic denominator's
    one root, so every pair is coprime and is stored as built, with no gcd.
    """
    if n < 1:
        raise InvalidRange("n must be >= 1")
    nums = [Polynomial([0, 1] + [sum(math.comb(2 * k - 1, t) for k in range(1, m + 1))
                                 for t in range(2 * m)])
            for m in range(n)]
    dens = [Polynomial([math.comb(p, t) for t in range(p + 1)]) for p in range(2 * n)]
    return tuple(tuple(RationalFunction._coprime(nums[min(i, j)], dens[i + j + 1])
                       for j in range(n))
                 for i in range(n))


# ----------------------------------------------------------------------
# Bode sweep

_LN2 = math.log(2.0)
_LN4 = 2.0 * _LN2


@dataclass(frozen=True)
class BodeTable:
    """Log-magnitude rows of S_n over the samples, with the largest sampled excess.

    Row m < n is ln|s P_m(jw)|, the numerator of every entry with
    min(i, j) = m, and row n + k is -ln|(1+jw)^(k+1)|, the denominator of
    every entry with i + j = k. ln|S_ij| is rows[min(i, j)][w] + rows[n + i + j][w].
    """

    omegas: array
    n: int
    rows: Tuple[array, ...]  # 3n - 1 rows of len(omegas)
    worst_excess: float

    def to_csv(self):
        """bode.csv as chunks of text of about 2^12 lines each, header first."""
        # omega-major, then row, then col; indices 1-based. (i, j) and (j, i)
        # share both rows, the same float sum, so a chunk formats each of the
        # n(n+1)/2 distinct entries of each of its cnt omegas once, entry by
        # entry in the upper triangle's row-major order, where (i, j), i <= j,
        # is first[i] + j - i: entry k at the chunk's omega t is vals[cnt k + t].
        # A chunk is whole omegas when n^2 is small, so they share one
        # comprehension, or else whole rows of one omega; each chunk lists
        # its rows' places afresh, so nothing of size n^2 is built and memory
        # stays bounded at large n
        n, om = self.n, self.omegas
        idx = [f"{i + 1}," for i in range(n)]
        first = [i * n - i * (i - 1) // 2 for i in range(n)]
        span = max(1, 2 ** 12 // n)
        step = max(1, 2 ** 12 // (n * n))
        yield "omega,row,col,abs,abs_db\n"
        for w in range(0, len(om), step):
            cut = slice(w, w + step)
            heads = [f"{x!r}," for x in om[cut]]
            cnt = len(heads)
            nums = [r[cut] for r in self.rows[:n]]
            dens = [r[cut] for r in self.rows[n:]]
            vals = [f"{math.exp(lg)!r},{lg * _DB!r}\n" for lg in chain.from_iterable(
                        map(operator.add, nums[i] * (n - i), chain.from_iterable(dens[2 * i:i + n]))
                        for i in range(n))]
            for r in range(0, n, span):
                part = [(idx[i], [cnt * (first[j] + i - j) for j in range(i)]
                         + list(range(cnt * first[i], cnt * (first[i] + n - i), cnt)))
                        for i in range(r, min(r + span, n))]
                yield "".join([h + ri + c + vals[t + k] for t, h in enumerate(heads)
                               for ri, ks in part for c, k in zip(idx, ks)])


def bode_table(n: int, omega_min: float, omega_max: float, points_per_decade: int) -> BodeTable:
    """Magnitudes of every entry of S_n over the sweep, from the lemma's closed form.

    |S_ij(jw)| <= |jw/(jw+1)| for every n, i, j and w > 0, by this lemma.
    Entry (i, j), 0-based, is s P_m / (s+1)^(i+j+1) with m = min(i, j) and
    P_m = 1 + s sum_{k=1..m} (s+1)^(2k-1); summing the geometric series
    gives (s+2) P_m = 1 + (s+1)^(2m+1). Let r = |1+jw| >= 1, so
    |2+jw| = sqrt(r^2+3). Then |S_ij| / |jw/(jw+1)| = |P_m| / r^(i+j)
    <= |P_m| / r^(2m), since i+j >= 2m, and this is at most
    (1 + r^(2m+1)) / (r^(2m) sqrt(r^2+3)), which is at most 1 iff
    3 r^(2m) >= r + sqrt(r^2+3). For m >= 1 that holds, as
    r + sqrt(r^2+3) <= 2r + 1 <= 3r <= 3r^(2m); for m = 0, P_0 = 1.

    Both hypotheses are proven for every m, the closed form and the
    geometric series (`sensitivity_matrix`). So the sweep decides nothing,
    and it evaluates the closed form, not S_n's coefficients, in libm at
    the samples of `freq.LogGrid` over the sweep's range and density.
    With L = ln|1+jw| = logaddexp(0, 2 ln w) / 2, so w^2 never overflows,
    numerator row m is ln w + ln|1 + (1+jw)^(2m+1)| - ln|2+jw|. Write
    (1+jw)^(2m+1) = e^(x + j phi), x = (2m+1) L >= 0 and
    phi = (2m+1) atan w; then ln|1 + e^(x + j phi)| = x + ln|1 + e^-(x + j phi)|
    and |1 + e^-(x + j phi)|^2 = expm1(-x)^2 + 4 e^-x cos^2(phi/2), a sum of
    two terms >= 0 with e^-x <= 1, so nothing cancels or overflows.
    Denominator row k is -(k+1) L.

    worst_excess, the largest sampled |S_ij| - |jw/(jw+1)|, is a diagnostic
    of that float evaluation. It is taken on the diagonal: L >= 0, so the
    denominator rows fall with k, rounding included, and i + j >= 2 min(i, j)
    puts each numerator's largest entry at i = j = m.
    """
    if n < 1:
        raise InvalidRange("n must be >= 1")
    om = array("d", LogGrid(omega_min, omega_max, points_per_decade))
    log, exp, expm1, cos, log1p = math.log, math.exp, math.expm1, math.cos, math.log1p
    lw = array("d", map(log, om))
    # L and ln|2+jw| are logaddexp(0, y)/2 and logaddexp(2 ln 2, y)/2, y = 2 ln w,
    # inline by np.logaddexp's branches: the larger argument plus log1p(exp(-|x - y|))
    L = array("d", ((log1p(exp(y)) if y < 0.0 else y + log1p(exp(-y)) if y > 0.0 else _LN2)
                    / 2.0 for y in map(operator.mul, lw, repeat(2.0))))
    at = array("d", map(math.atan, om))
    l2 = array("d", ((_LN4 + log1p(exp(-t)) if (t := _LN4 - y) > 0.0 else
                      y + log1p(exp(t)) if t < 0.0 else _LN4 + _LN2) / 2.0
                     for y in map(operator.mul, lw, repeat(2.0))))
    bound = array("d", map(exp, map(operator.sub, lw, L)))
    den = tuple(array("d", map(operator.mul, repeat(-k), L)) for k in map(float, range(1, 2 * n)))
    num, worst = [], -math.inf
    for m in range(n):
        p = 2.0 * m + 1.0
        row = array("d", (a + (x := p * b)
                          + log((e := expm1(-x)) * e + 4.0 * exp(-x) * ((c := cos(p * t / 2.0)) * c))
                          / 2.0 - d
                          for a, b, t, d in zip(lw, L, at, l2)))
        worst = max(worst, max(map(operator.sub, map(exp, map(operator.add, row, den[2 * m])),
                                   bound)))
        num.append(row)
    return BodeTable(om, n, tuple(num) + den, worst)
