"""Reference routes the tests compare production code against.

None of these run in a command. `FractionPolynomial`, with `fraction_gcd`
and `fraction_hurwitz_stable`, is the tuple-of-Fractions polynomial: its
schoolbook product, long division, Euclid gcd and rational Routh table
check `Polynomial`'s integer numerators over one denominator, its
pseudo-division, gcd and fraction-free Routh table. `closed_loop`, the
generic unity-feedback interconnection, checks the T that production
builds in closed form. `gang_of_four_report` canonicalises S, PS, CS and
T over the uncancelled characteristic polynomial and Routh-tests each
reduced denominator, the generic route that checks
`ratfun.internal_stability`'s one Routh test on that polynomial. The
Youla coprime factors and the factor-arithmetic forms of the controller
and closed loop check the closed forms in `synthesis`; `maclaurin` reads Taylor coefficients at s = 0.
`lemma_structures` writes X_n, H_n, U_n and L_n as rational matrices
(tuples of row tuples of RationalFunction), the reference for the sparse
polynomial matrices `bidir` checks the factorization on; rational-matrix
sums, products, transposes and bidiagonal substitution on them check the
closed-form sensitivity matrix and the two cleared identities `bidir`
proves for every length. `_verify_sensitivity` checks L_n S_n U_n = s^2 I_n
at one length, with the denominators cleared, in exact polynomial
arithmetic.
`bode_rows_by_engine` reaches the Bode table's rows the generic way, the
exact numerators and denominators of S_n through np.polyval; it checks the
lemma's closed form `bidir.bode_table` evaluates.
`bode_rows_numpy` evaluates that closed form in numpy on np.logspace's
samples (`logspace_samples`, a LogGrid's range and count with both
endpoints exact, which `cascade` evaluates pd-random on too); `bode_table`
evaluates it in `math` on samples built by np.logspace's recurrence, and
with numpy's AVX-512 loops off (`avx512_dispatch_targets`) the two agree
bit for bit.
`bode_csv_per_entry` formats every entry of a Bode table on its own, the
text `BodeTable.to_csv` writes from the distinct entries only.
The np.polyval magnitude engine, one polynomial at a time
(`log_abs_polyval`, on coefficients scaled once from exact logs by
`_scaled_descending`), is every float route below.
`hinf_by_grid`, the best grid sample refined by golden section, is the
float peak that `freq.hinf_norm`'s exact enclosure must contain.
`abs_squared_at` reads |T(j w)|^2 exactly at one float sample, by Horner in
Gaussian integers; sample by sample, it checks the first and last grid
sample `synthesis` finds with |T| > 1 from one root isolation and a binary
search. `certify_by_grid`, `certify_closed_loop` on float log-magnitudes
(`float_over_samples`), is the route the certificate took before its
decisions became integer signs, and agrees with it wherever a sample's
float log-magnitude lies clear of 0. `invariance_check` compares the
leading blocks of S_n across lengths, which `bidir.sensitivity_matrix`'s
closed form makes equal by construction.
`cascade_gain` tests each stage of an arbitrary controller cascade by the
gang of four and sums the stages' log-magnitudes (`cascade_profile`); with
it, the per-stage PD route, with a fresh generator per gain, checks the
closed-form PD cascade and its one keyed generator in `cascade`.
`family_member` builds a scaled member's exact controller, whose loop the
tests compare with T(gamma_k s); no command builds one. The family sweep,
reading every member's T(gamma_k s) on one float grid, checks the bound
that `synthesis.family_product_check` proves by comparisons. Adaptive
Simpson quadrature of the Middleton integrand, with its truncation bound,
checks the closed form `cascade.middleton_integral` returns.
`avx512_dispatch_targets` and `avx512_dispatched` read which of numpy's
float64 loops run, since its AVX-512 ones round differently from libm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from platoonctrl.bidir import sensitivity_matrix
from platoonctrl.cascade import _SCHEME, MistuneReport, _GainDrawer, _trial_peaks
from platoonctrl.errors import (DivergentAtOrigin, IllPosed, InvalidRange, PeakExceedsBudget,
                                PlatoonError, PoleAtPoint, StabilityCheckFailed)
from platoonctrl.freq import LogGrid, default_grid, hinf_norm
from platoonctrl.poly import Polynomial, hurwitz_stable
from platoonctrl.ratfun import RationalFunction, hurwitz_denominator, scale_frequency
from platoonctrl.synthesis import Certificate, plant

_S = Polynomial([0, 1])
_ONE = Polynomial([1])
_ZERO_RF = RationalFunction(Polynomial([]), _ONE)
_ONE_RF = RationalFunction(_ONE, _ONE)


# ---------------------------------------------------------------- exact polynomials

class FractionPolynomial:
    """Ascending tuple of Fraction coefficients, no trailing zero: the
    reference `Polynomial`'s integer-over-one-denominator arithmetic is
    checked against, with schoolbook products and long division in Fractions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        vals = [Fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.coeffs = tuple(vals)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
        return FractionPolynomial(x + y for x, y in zip(a, b))

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPolynomial):
            c = Fraction(other)
            return FractionPolynomial(c * x for x in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return FractionPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return FractionPolynomial(out)

    def __pow__(self, n: int):
        out = FractionPolynomial([1])
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return FractionPolynomial(), self
        lead, db = other.coeffs[-1], len(other.coeffs) - 1
        q = [Fraction(0)] * (dq + 1)
        rem = list(self.coeffs)
        for k in range(dq, -1, -1):
            c = rem[db + k] / lead
            q[k] = c
            for i, bc in enumerate(other.coeffs):
                rem[i + k] -= c * bc
        return FractionPolynomial(q), FractionPolynomial(rem)

    def scale(self, gamma):
        g = Fraction(gamma)
        return FractionPolynomial(c * g ** k for k, c in enumerate(self.coeffs))

    def monic(self):
        return self * (1 / self.coeffs[-1])


def fraction_gcd(a: FractionPolynomial, b: FractionPolynomial) -> FractionPolynomial:
    """Monic gcd by Euclid's algorithm in Fractions; the gcd of 0 and 0 is 0."""
    while b.coeffs:
        a, b = b, divmod(a, b)[1]
    return a.monic() if a.coeffs else a


def fraction_hurwitz_stable(p: FractionPolynomial) -> bool:
    """The Routh table in Fractions: every pivot positive after the sign is fixed."""
    desc = list(reversed(p.coeffs))
    if len(desc) == 1:
        return True
    if desc[0] < 0:
        desc = [-c for c in desc]
    if any(c <= 0 for c in desc):
        return False
    prev, cur = desc[0::2], desc[1::2]
    while cur:
        if cur[0] <= 0:
            return False
        nxt = [prev[i + 1] - prev[0] * (cur[i + 1] if i + 1 < len(cur) else 0) / cur[0]
               for i in range(len(prev) - 1)]
        prev, cur = cur, nxt
    return True


# ---------------------------------------------------------------- feedback loop

def closed_loop(p: RationalFunction, c: RationalFunction):
    """(S, T) = (1/(1+pc), pc/(1+pc)) for the unity-feedback loop.

    Both maps are formed from the cleared characteristic polynomial
    d_p*d_c + n_p*n_c and returned canonical; S + T = 1 exactly.
    """
    char = p.den * c.den + p.num * c.num
    if char.is_zero:
        raise IllPosed("1 + p*c is identically zero")
    return RationalFunction(p.den * c.den, char), RationalFunction(p.num * c.num, char)


@dataclass(frozen=True)
class StabilityReport:
    """Gang-of-four verdict for a plant/controller pair.

    gang_of_four = (S, PS, CS, T) = (1/(1+pc), p/(1+pc), c/(1+pc),
    pc/(1+pc)), each canonical; a caller holding a report reads T from it.
    internally_stable is the conjunction of each_stable.
    Properness is recorded per map but kept out of the verdict: the loop may
    legitimately contain improper PD-type controllers, and only final shipped
    controllers need properness.
    """

    gang_of_four: tuple
    each_stable: tuple
    each_proper: tuple
    internally_stable: bool
    char_poly: Polynomial

    def diagnostic(self) -> str:
        """'unstable closed-loop members: ...', naming each unstable map."""
        bad = [name for name, good in zip(("S", "PS", "CS", "T"), self.each_stable) if not good]
        return "unstable closed-loop members: " + ", ".join(bad)


def gang_of_four_report(p: RationalFunction, c: RationalFunction) -> StabilityReport:
    """Gang-of-four analysis without cancelling p-c common factors.

    Each of the four maps starts from the shared unreduced characteristic
    polynomial, is then brought to canonical form individually, and its
    reduced denominator is Routh-tested. Skipping the p-c cancellation up
    front is what makes hidden unstable cancellations visible in at least one
    of the four maps.
    """
    char = p.den * c.den + p.num * c.num
    if char.is_zero:
        raise IllPosed("1 + p*c is identically zero")
    nums = (p.den * c.den, p.num * c.den, p.den * c.num, p.num * c.num)
    four = tuple(RationalFunction(n, char) for n in nums)
    each_stable = tuple(f.den.degree == 0 or hurwitz_stable(f.den) for f in four)
    each_proper = tuple(f.is_proper for f in four)
    return StabilityReport(four, each_stable, each_proper, all(each_stable), char)


# ---------------------------------------------------------------- Youla factors

@dataclass(frozen=True)
class YoulaData:
    """Coprime factors and Bezout pair for 1/s^m, all in RH-infinity."""

    m: int
    N: RationalFunction
    M: RationalFunction
    X: RationalFunction
    Y: RationalFunction


def youla_coprime(m: int) -> YoulaData:
    """N = 1/(s+1)^m, M = s^m/(s+1)^m and the Bezout pair X, Y.

    X has numerator sum_{k<m} C(2m,k) s^k and Y has numerator
    sum_{l=m..2m} C(2m,l) s^{l-m}, both over (s+1)^m; this is the split of
    the binomial expansion of (1+s)^{2m} at index m. The identity
    N*X + M*Y = 1 is checked exactly before returning.
    """
    if m < 1:
        raise InvalidRange("m must be >= 1")
    wp = (_ONE + _S) ** m
    data = YoulaData(
        m,
        N=RationalFunction(_ONE, wp),
        M=RationalFunction(_S ** m, wp),
        X=RationalFunction(Polynomial([math.comb(2 * m, k) for k in range(m)]), wp),
        Y=RationalFunction(Polynomial([math.comb(2 * m, l) for l in range(m, 2 * m + 1)]), wp),
    )
    if data.N * data.X + data.M * data.Y != _ONE_RF:
        raise ArithmeticError(f"Bezout identity failed for m={m}")
    return data


def q1_shape(m: int, gamma_a, gamma_b) -> RationalFunction:
    """Q1 = (s+1)^m / ((s+gamma_a)(s+gamma_b)^{m-1}), the band-shaping parameter."""
    if m < 1:
        raise InvalidRange("m must be >= 1")
    ga, gb = Fraction(gamma_a), Fraction(gamma_b)
    if ga <= 0 or gb <= 0:
        raise InvalidRange("gamma_a and gamma_b must be positive")
    den = Polynomial([ga, 1]) * Polynomial([gb, 1]) ** (m - 1)
    return RationalFunction((_ONE + _S) ** m, den)


def youla_T_by_factors(m: int, gamma_a, gamma_b) -> RationalFunction:
    """T = N*X*(1 - M*Q1), formed in canonical rational-function arithmetic."""
    yd = youla_coprime(m)
    return yd.N * yd.X * (_ONE_RF - yd.M * q1_shape(m, gamma_a, gamma_b))


def controller_by_factors(m: int, gamma_a, gamma_b) -> RationalFunction:
    """c = (X + M*Q)/(Y - N*Q) with Q = -X*Q1, in canonical arithmetic."""
    yd = youla_coprime(m)
    Q = -(yd.X * q1_shape(m, gamma_a, gamma_b))
    den = yd.Y - yd.N * Q
    if den.num.is_zero:
        raise IllPosed("Y - N*Q is identically zero")
    return (yd.X + yd.M * Q) / den


def maclaurin(f: RationalFunction, count: int):
    """First `count` Taylor coefficients of f at s = 0."""
    d = f.den.coeffs
    if d[0] == 0:
        raise PoleAtPoint("pole at the origin")
    n = f.num.coeffs
    out = []
    for k in range(count):
        acc = n[k] if k < len(n) else Fraction(0)
        for i in range(1, k + 1):
            di = d[i] if i < len(d) else Fraction(0)
            acc -= di * out[k - i]
        out.append(acc / d[0])
    return out


# ---------------------------------------------------------------- rational matrices
# a matrix is a tuple of row tuples of RationalFunction, 0-based

def lemma_structures(n: int):
    """(X_n, H_n, U_n, L_n) exactly as displayed, as rational matrices.

    X_n: 1 on the diagonal, -1 on the subdiagonal. H_n: diagonal
    ((s+1)/s^2, ..., (s+1)/s^2, 1/s), the last loop differing. U_n: s+1 on
    the diagonal, -1 on the superdiagonal. L_n: diagonal (s, s+1, ..., s+1),
    -1 on the subdiagonal.
    """
    if n < 1:
        raise InvalidRange("n must be >= 1")
    h_mid = RationalFunction(_ONE + _S, _S * _S)
    h_last = RationalFunction(_ONE, _S)
    sp1 = RationalFunction(_ONE + _S, _ONE)
    s_rf = RationalFunction(_S, _ONE)
    neg1 = RationalFunction(Polynomial([-1]), _ONE)

    def bidiagonal(diag, offset):
        return tuple(
            tuple(diag(i) if i == j else neg1 if j == i + offset else _ZERO_RF
                  for j in range(n))
            for i in range(n))

    X = bidiagonal(lambda _: _ONE_RF, -1)
    H = tuple(tuple((h_last if i == n - 1 else h_mid) if i == j else _ZERO_RF
                    for j in range(n))
              for i in range(n))
    U = bidiagonal(lambda _: sp1, +1)
    L = bidiagonal(lambda i: s_rf if i == 0 else sp1, -1)
    return X, H, U, L


def eye(n: int):
    return tuple(tuple(_ONE_RF if i == j else _ZERO_RF for j in range(n))
                 for i in range(n))


def transpose(A):
    return tuple(zip(*A))


def mat_add(A, B):
    if (len(A), len(A[0])) != (len(B), len(B[0])):
        raise InvalidRange("shape mismatch in add")
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def matmul(A, B, *rest):
    """A B (C ...), each product in canonical rational-function arithmetic."""
    if len(A[0]) != len(B):
        raise InvalidRange("shape mismatch in matmul")
    # zero factors are skipped so bidiagonal products cost O(n^2)
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = None
            for a, b_row in zip(row, B):
                b = b_row[j]
                if a.num.is_zero or b.num.is_zero:
                    continue
                acc = a * b if acc is None else acc + a * b
            out_row.append(_ZERO_RF if acc is None else acc)
        out.append(tuple(out_row))
    P = tuple(out)
    return matmul(P, *rest) if rest else P


class SingularDiagonal(PlatoonError):
    """Bidiagonal inversion hit a zero diagonal entry."""


def invert_bidiagonal(T, shape: str):
    """Exact inverse of an upper or lower bidiagonal matrix.

    Back (upper) or forward (lower) substitution column by column; the
    diagonal must be nonzero. The product T times the result is checked to
    be the identity before returning.
    """
    if shape not in ("upper", "lower"):
        raise InvalidRange("shape must be 'upper' or 'lower'")
    n = len(T)
    if any(len(row) != n for row in T):
        raise InvalidRange("matrix must be square")
    off = +1 if shape == "upper" else -1
    for i, row in enumerate(T):
        for j, f in enumerate(row):
            if i == j:
                if f.num.is_zero:
                    raise SingularDiagonal(f"zero diagonal entry at position {i + 1}")
            elif j != i + off and not f.num.is_zero:
                raise InvalidRange(f"entry ({i + 1},{j + 1}) breaks the bidiagonal shape")
    cols = [[_ZERO_RF] * n for _ in range(n)]
    order = range(n - 1, -1, -1) if shape == "upper" else range(n)
    for j in range(n):
        for i in order:
            acc = _ONE_RF if i == j else _ZERO_RF
            k = i + off
            if 0 <= k < n and not T[i][k].num.is_zero:
                acc = acc - T[i][k] * cols[j][k]
            cols[j][i] = acc / T[i][i]
    inv = transpose(cols)
    if matmul(T, inv) != eye(n):
        raise ArithmeticError("inverse verification failed")
    return inv


# ---------------------------------------------------------------- sensitivity identity
# L_n S_n U_n = s^2 I_n checked at one length, in n^2 products of degree up
# to 2n; `bidir.sensitivity_matrix` proves it for every length

_ZERO = Polynomial()
_SP1 = Polynomial([1, 1])


def _binomial_rows(count: int):
    """The ascending coefficients of (s+1)^p for p = 0..count-1."""
    return [[math.comb(p, t) for t in range(p + 1)] for p in range(count)]


def _verify_sensitivity(S: Tuple[Tuple[RationalFunction, ...], ...]) -> None:
    """Raise unless L_n S U_n == s^2 I_n exactly, n the size of S.

    Entry (i, j), 0-based, must be N_ij / (s+1)^(i+j+1). With the
    denominators cleared, (L S U)_ij = delta_ij s^2 reads
    l_i (N_ij - N_i,j-1) - (s+1) (N_i-1,j - N_i-1,j-1)
    == delta_ij s^2 (s+1)^(2i), where l_0 = s, l_i = s+1 otherwise, and N
    is zero outside the matrix; that is checked in exact polynomial
    arithmetic. So is (s+2) N_ii = s (1 + (s+1)^(2i+1)), the identity
    `bode_table`'s lemma rests on (N_ii = s P_i).
    """
    fail = ArithmeticError("sensitivity verification failed; construction bug")
    n = len(S)
    if any(len(row) != n for row in S):
        raise fail
    power = [Polynomial(row) for row in _binomial_rows(2 * n)]
    if any(f.den != power[i + j + 1] for i, row in enumerate(S) for j, f in enumerate(row)):
        raise fail
    N = [[f.num for f in row] for row in S]
    for i in range(n):
        if (_S + 2) * N[i][i] != _S * (_ONE + power[2 * i + 1]):
            raise fail
        l_i = _S if i == 0 else _SP1
        for j in range(n):
            here = N[i][j] - N[i][j - 1] if j else N[i][j]
            above = (N[i - 1][j] - N[i - 1][j - 1] if j else N[i - 1][j]) if i else _ZERO
            if l_i * here - _SP1 * above != (_S * _S * power[2 * i] if i == j else _ZERO):
                raise fail


def invariance_check(k: int, ns) -> bool:
    """True iff the leading k-by-k block of S_n agrees exactly across ns.

    `bidir.sensitivity_matrix`'s entry (i, j) has no n in it, so this holds
    for every k and ns by construction; the check compares the blocks."""
    if k < 1:
        raise InvalidRange("k must be >= 1")
    ns = list(ns)
    if not ns:
        raise InvalidRange("ns must be nonempty")
    if any(n < k for n in ns):
        raise InvalidRange("every n must be >= k")

    def block(n):
        return tuple(row[:k] for row in sensitivity_matrix(n)[:k])

    first = block(ns[0])
    return all(block(n) == first for n in ns[1:])


# ---------------------------------------------------------------- Bode table

def bode_rows_by_engine(n: int, omegas) -> np.ndarray:
    """`BodeTable.rows` by the magnitude engine on the exact entries of S_n.

    Row m < n is ln|s P_m|, the numerator of every entry with min(i, j) = m,
    and row n + k is -ln|(s+1)^(k+1)|, the denominator of every entry with
    i + j = k; each is read off an entry of `sensitivity_matrix(n)` and run
    through Horner on its monomial coefficients.
    """
    S = sensitivity_matrix(n)
    return np.array([log_abs_polyval(S[m][m].num.coeffs, (1,), omegas) for m in range(n)]
                    + [log_abs_polyval((1,), S[max(0, k - n + 1)][min(k, n - 1)].den.coeffs,
                                       omegas) for k in range(2 * n - 1)])


def bode_rows_numpy(n: int, omega_min: float, omega_max: float, points_per_decade: int):
    """(samples, rows, worst_excess) of `bidir.bode_table`, evaluated in numpy.

    The samples are `logspace_samples`, np.logspace with both endpoints
    stored exactly; rows is the (3n - 1, samples) array of `BodeTable.rows`, by the
    same formulas in the same operation order, with np.logaddexp.
    """
    if n < 1:
        raise InvalidRange("n must be >= 1")
    om = logspace_samples(LogGrid(omega_min, omega_max, points_per_decade))
    lw = np.log(om)
    L = np.logaddexp(0.0, 2.0 * lw) / 2.0
    p = np.arange(1.0, 2 * n, 2.0)[:, None]  # 2m + 1
    x, half_phi = p * L, p * np.arctan(om) / 2.0
    num = (lw + x + np.log(np.expm1(-x) ** 2 + 4.0 * np.exp(-x) * np.cos(half_phi) ** 2) / 2.0
           - np.logaddexp(2.0 * math.log(2.0), 2.0 * lw) / 2.0)
    den = -np.arange(1.0, 2 * n)[:, None] * L
    excess = np.exp(num + den[::2]) - np.exp(lw - L)
    return om, np.concatenate([num, den]), float(excess.max())


def bode_csv_per_entry(table) -> str:
    """`BodeTable.to_csv`'s text, formatting all n^2 entries of every omega one by one."""
    n, rows = table.n, table.rows
    lines = ["omega,row,col,abs,abs_db"]
    for w, om in enumerate(table.omegas):
        for i in range(n):
            for j in range(n):
                lg = rows[min(i, j)][w] + rows[n + i + j][w]
                lines.append(f"{om!r},{i + 1},{j + 1},{math.exp(lg)!r},"
                             f"{lg * (20.0 / math.log(10.0))!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- magnitude engine

def logspace_samples(grid: LogGrid) -> np.ndarray:
    """np.logspace over the grid's range and count, both endpoints set exactly;
    each sample lies within 1 ulp of the grid's own."""
    om = np.logspace(math.log10(grid.omega_min), math.log10(grid.omega_max), len(grid))
    om[0], om[-1] = grid.omega_min, grid.omega_max
    return om


def _log_abs_coeff(c) -> float:
    """log|c| for a nonzero int or Fraction, immune to float overflow."""
    return math.log(abs(c.numerator)) - math.log(c.denominator)


def _scaled_descending(coeffs):
    """(descending float coeffs scaled to max |coeff| = 1, log of the scale).

    coeffs is a nonempty ascending sequence of ints or Fractions without
    trailing zeros, as Polynomial.coeffs holds it.
    """
    logs = [(-math.inf if c == 0 else _log_abs_coeff(c)) for c in coeffs]
    top = max(logs)
    scaled = []
    for c, lg in zip(coeffs, logs):
        if c == 0:
            scaled.append(0.0)
        else:
            mag = math.exp(lg - top)
            scaled.append(mag if c > 0 else -mag)
    return np.array(scaled[::-1], dtype=float), top


def poly_log_abs_polyval(p: Polynomial, omegas) -> np.ndarray:
    """ln|p(j*omega)| by np.polyval on the scaled coefficients, one polynomial at a time."""
    omegas = np.asarray(omegas, dtype=float)
    if p.is_zero:
        return np.full(omegas.shape, -np.inf)
    desc, top = _scaled_descending(p.coeffs)
    d = len(desc) - 1
    z = 1j * omegas
    out = np.empty(omegas.shape)
    small = omegas <= 1.0
    with np.errstate(divide="ignore"):
        if small.any():
            out[small] = np.log(np.abs(np.polyval(desc, z[small])))
        big = ~small
        if big.any():
            out[big] = d * np.log(omegas[big]) + \
                np.log(np.abs(np.polyval(desc[::-1], 1.0 / z[big])))
    return out + top


def log_abs_polyval(num, den, omegas) -> np.ndarray:
    """ln|num(j*omega) / den(j*omega)| for two ascending coefficient sequences, as
    the difference of their polyval rows; the empty sequence is 0, whose log is -inf."""
    return poly_log_abs_polyval(Polynomial(num), omegas) - \
        poly_log_abs_polyval(Polynomial(den), omegas)


# ---------------------------------------------------------------- float certificate

def _bisect_log_crossing(log_abs, a: float, b: float, keep_low: bool) -> float:
    # |T| = 1 crossing between a and b on float log-magnitudes; returns the
    # endpoint kept on the log|T| <= 0 side, tightened to 1e-10 relative width
    while (b - a) > 1e-10 * b:
        mid = math.sqrt(a * b)
        if (float(log_abs(np.array([mid]))[0]) <= 0) == keep_low:
            a = mid
        else:
            b = mid
    return a if keep_low else b


def abs_squared_at(f: RationalFunction, w: float) -> Fraction:
    """|f(j w)|^2 in exact arithmetic, w a float read as the dyadic rational it is.

    Each of f's integer coefficient lists is evaluated at j n/d, w = n/d, by
    Horner in Gaussian integers with the powers of d cleared, and the squared
    moduli are divided as Fractions; w = inf gives the limit of a proper f.
    """
    if w == math.inf:
        return Fraction(0) if f.num.degree < f.den.degree else \
            (f.num.leading() / f.den.leading()) ** 2
    n, d = Fraction(w).as_integer_ratio()

    def cleared(p):
        # |d^deg p.ints(j n/d)|^2
        ints = p.ints
        re, im = ints[-1], 0
        scale = 1
        for c in reversed(ints[:-1]):
            scale *= d
            re, im = -im * n + c * scale, re * n
        return re * re + im * im

    if f.num.is_zero:
        return Fraction(0)
    shift = 2 * (f.den.degree - f.num.degree)
    return Fraction(cleared(f.num) * f.den.den ** 2 * d ** max(shift, 0),
                    cleared(f.den) * f.num.den ** 2 * d ** max(-shift, 0))


def float_over_samples(T: RationalFunction, omegas):
    """(over, logs): the first and last index with float ln|T(j omega)| > 0,
    None if there is none, and the row of ln|T| itself."""
    logs = log_abs_polyval(T.num.coeffs, T.den.coeffs, omegas)
    over = np.flatnonzero(logs > 0.0)
    return ((int(over[0]), int(over[-1])) if len(over) else None), logs


def certify_by_grid(T: RationalFunction, epsilon: float, grid: LogGrid | None = None):
    """`synthesis.certify_closed_loop` on float log-magnitudes.

    The grid route `certify_closed_loop` took before its decisions became
    integer signs, on the grid's `logspace_samples`: an over-budget sample
    rejects, then hinf_norm's proven peak; the band is the first and last
    sample with float log|T| > 0, each edge bisected on float log|T| <= 0.
    """
    if epsilon <= 0:
        raise InvalidRange("epsilon must be positive")
    om = logspace_samples(default_grid() if grid is None else grid)

    def log_abs(w):
        return log_abs_polyval(T.num.coeffs, T.den.coeffs, w)

    over, logs = float_over_samples(T, om)
    i = int(np.argmax(logs))
    peak, w = float(np.exp(np.float64(logs[i]))), float(om[i])
    if peak <= 1 + epsilon:
        peak, w, _ = hinf_norm(T)
    if peak > 1 + epsilon:
        raise PeakExceedsBudget(f"peak {peak:.9g} at omega {w:.6g} exceeds {1 + epsilon:.6g}")
    if over is None:
        return Certificate(float(epsilon), peak, 1.0, 1.0, band_empty=True)
    first, last = over
    if first == 0 or last == len(logs) - 1:
        raise InvalidRange("amplification band touches the grid edge; widen the grid")
    w_lo = _bisect_log_crossing(log_abs, float(om[first - 1]), float(om[first]), True)
    w_hi = _bisect_log_crossing(log_abs, float(om[last]), float(om[last + 1]), False)
    return Certificate(float(epsilon), peak, w_lo, w_hi, band_empty=False)


# ---------------------------------------------------------------- scaled family

def _golden_max(g, lo: float, hi: float, rel_tol: float = 1e-10):
    """Golden-section maximization of g over [lo, hi] in log-omega."""
    a, b = math.log(lo), math.log(hi)
    if not b > a:
        return lo, g(lo)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(math.exp(c)), g(math.exp(d))
    while (b - a) > rel_tol:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(math.exp(c))
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(math.exp(d))
    w = math.exp(0.5 * (a + b))
    return w, g(w)


def hinf_by_grid(f: RationalFunction, grid: LogGrid | None = None) -> Tuple[float, float]:
    """(peak, argmax omega): the float peak over a grid, refined by golden section.

    Candidates: every one of the grid's `logspace_samples`, omega = 0, omega = infinity (when
    deg num = deg den), and a golden-section refinement to 1e-10 relative
    omega-width around the best grid sample. A lower bound, up to rounding.
    """
    if f.num.is_zero:
        return 0.0, 0.0
    if not (f.is_proper and hurwitz_denominator(f)):
        raise StabilityCheckFailed("closed loop has no finite peak")
    om = logspace_samples(default_grid() if grid is None else grid)

    def log_abs(w):
        return log_abs_polyval(f.num.coeffs, f.den.coeffs, w)

    logs = log_abs(om)
    i = int(np.argmax(logs))
    candidates = [(float(logs[i]), float(om[i]))]

    lo, hi = float(om[max(i - 1, 0)]), float(om[min(i + 1, len(om) - 1)])
    w_star, g_star = _golden_max(lambda w: float(log_abs(np.array([w]))[0]), lo, hi)
    candidates.append((g_star, w_star))

    n0 = f.num.coeffs[0]
    if n0 != 0:
        candidates.append((_log_abs_coeff(n0) - _log_abs_coeff(f.den.coeffs[0]), 0.0))
    if f.num.degree == f.den.degree:
        candidates.append((_log_abs_coeff(f.num.coeffs[-1]) - _log_abs_coeff(f.den.coeffs[-1]),
                           math.inf))

    best_log, best_w = max(candidates)
    # a peak past double range overflows to inf
    with np.errstate(over="ignore"):
        norm = float(np.exp(np.float64(best_log)))
    return norm, best_w


def family_member(family, k: int) -> RationalFunction:
    """Member k's exact controller c_k = gamma_k^{-m} c(gamma_k s), k counted from 0."""
    g = family.gammas[k]
    return scale_frequency(family.base, g) / g ** family.m


def family_sweep(family, T: RationalFunction):
    """(grid max of prod_k |T_k(j omega)|, grid max of every member's ln|T_k| at or above omega_bw).

    T is the base closed loop; member k's ln|T_k(j omega)| is read as the
    base ln|T(j gamma_k omega)| in double precision, on a grid from a decade
    below the lowest member band to a decade past omega_bw and the highest
    band, so every gamma and gamma_k * omega must lie in double range.
    """
    cert = family.base_certificate
    gmax, gmin = float(max(family.gammas)), float(min(family.gammas))
    om = logspace_samples(LogGrid(min(1e-4, cert.omega_low / gmax / 10),
                                  max(1e4, cert.omega_high / gmin * 10, family.omega_bw * 10)))
    above = om >= family.omega_bw
    members = np.array([log_abs_polyval(T.num.coeffs, T.den.coeffs, om * float(g))
                        for g in family.gammas])
    return float(np.exp(members.sum(axis=0).max())), float(members[:, above].max())


# ---------------------------------------------------------------- integral obstruction

def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, 24)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
    flm, frm = f(lm), f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        # Richardson extrapolation of the two half-panels
        return left + right + (left + right - whole) / 15.0
    return (_simpson_rec(f, a, mid, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_rec(f, mid, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def middleton_quadrature(T: RationalFunction, omega_lo: float = 1e-6,
                         omega_hi: float = 1e6, tol: float = 1e-8):
    """(estimate, bound) of the integral over (0, inf) of ln|T(j omega)| / omega^2.

    Requires T stable, strictly proper, and T(0) = 1 (otherwise the integrand
    has a non-integrable 1/omega^2 singularity at the origin and
    DivergentAtOrigin is raised). The body is integrated per decade with
    adaptive Simpson in u = ln(omega); below omega_lo the integrand is
    essentially its limit value so the head is estimated as one rectangle,
    and above omega_hi the rolloff |T| ~ C/omega^r gives a closed-form tail.
    The reported bound is |head| + |tail| + the quadrature allowance, so the
    estimate's distance from the true integral is controlled, not hidden.
    """
    if not (0 < omega_lo < omega_hi):
        raise InvalidRange("need 0 < omega_lo < omega_hi")
    if T.num.is_zero or T.num.degree >= T.den.degree:
        raise StabilityCheckFailed("T must be nonzero and strictly proper")
    if not hurwitz_stable(T.den):
        raise StabilityCheckFailed("T must be stable")
    t0 = T(Fraction(0))
    if t0 != 1:
        raise DivergentAtOrigin(f"T(0) = {t0} != 1")

    def log_abs(w: float) -> float:
        return float(log_abs_polyval(T.num.coeffs, T.den.coeffs, [w])[0])

    def g(u: float) -> float:
        # integrand after omega = e^u: ln|T(j e^u)| e^{-u}
        return log_abs(math.exp(u)) * math.exp(-u)

    lo_d, hi_d = math.log10(omega_lo), math.log10(omega_hi)
    edges = [lo_d]
    k = math.floor(lo_d) + 1
    while k < hi_d:
        edges.append(float(k))
        k += 1
    edges.append(hi_d)
    body = 0.0
    for a_d, b_d in zip(edges, edges[1:]):
        body += _adaptive_simpson(g, a_d * math.log(10.0), b_d * math.log(10.0), tol)

    head = log_abs(omega_lo) / omega_lo
    r = T.den.degree - T.num.degree
    lead_ratio = T.num.leading() / T.den.leading()
    try:
        ln_c = math.log(abs(float(lead_ratio)))
    except (OverflowError, ValueError):
        # |lead_ratio| past double range: float() overflows or gives 0.0,
        # so the log is read off its exact numerator and denominator
        ln_c = _log_abs_coeff(lead_ratio)
    w = omega_hi
    tail = ln_c / w - r * (math.log(w) + 1.0) / w
    bound = abs(head) + abs(tail) + tol * (len(edges) - 1)
    return head + body + tail, bound


# ---------------------------------------------------------------- PD cascade

def _peaks(totals, omegas) -> list:
    # (peak, its omega) at the first maximum of each row of summed
    # log-magnitudes; each peak is exp'd alone, as a vector exp may round
    # differently, and one past double range overflows to inf
    tops = np.argmax(totals, axis=1).tolist()
    with np.errstate(over="ignore"):
        return [(float(np.exp(np.float64(row[top]))), float(omegas[top]))
                for row, top in zip(totals, tops)]


@dataclass(frozen=True)
class CascadeProfile:
    """Cumulative log-magnitude of prod_k T_k at a grid's `logspace_samples`, with its peak."""

    omegas: np.ndarray
    log_magnitudes: np.ndarray
    peak: float
    argmax_omega: float

    def to_csv(self) -> str:
        lines = ["omega,abs,abs_db"]
        for om, lg in zip(self.omegas, self.log_magnitudes):
            lines.append(f"{float(om)!r},{math.exp(lg)!r},{float(lg) * (20.0 / math.log(10.0))!r}")
        return "\n".join(lines) + "\n"


def cascade_profile(stages, grid: LogGrid) -> CascadeProfile:
    """Per-omega sum of ln|T_k(j omega)| for the cascade of the given stages.

    The stages are the T_k as (num_coeffs, den_coeffs) pairs of ascending
    coefficients; the profile equals |y_n/d_1| pointwise for the n-stage
    cascade. Each stage's ln|T_k| is its own polyval row, and the rows are
    summed in stage order; the peak is read as
    `cascade.pd_mistune_experiment` reads its trials'.
    """
    om = logspace_samples(grid)
    total = np.zeros(len(om))
    for num, den in stages:
        total = total + log_abs_polyval(num, den, om)
    return CascadeProfile(om, total, *_peaks(total[None], om)[0])


def cascade_gain(controllers, m: int, grid=None) -> CascadeProfile:
    """The cascade profile of the given controllers, each Routh-tested.

    Each controller must internally stabilise 1/s^m; the failure message
    names the 1-based offender. Each stage's T is read off the gang of four
    and the stages go to `cascade_profile`.
    """
    if not controllers:
        raise InvalidRange("need at least one controller")
    if grid is None:
        grid = default_grid()
    p = plant(m)
    stages = []
    for i, c in enumerate(controllers, start=1):
        rep = gang_of_four_report(p, c)
        if not rep.internally_stable:
            raise StabilityCheckFailed(
                f"controller {i} of {len(controllers)} does not internally stabilise 1/s^{m}")
        T = rep.gang_of_four[3]
        stages.append((T.num.coeffs, T.den.coeffs))
    return cascade_profile(stages, grid)


def pd_gain_fresh(seed: int, trial: int, vehicle: int, k_min: float, k_max: float) -> Fraction:
    """The (trial, vehicle) gain from a generator built for this one draw."""
    bg = np.random.Philox(key=seed, counter=[trial, vehicle, 0, 0])
    u = np.random.Generator(bg).random()
    return Fraction(k_min) + (Fraction(k_max) - Fraction(k_min)) * Fraction(u)


def philox_raw(seed: int, t0: int, vehicle: int, count: int):
    """Word 0 of each block numpy's Philox reads from counter [t0, vehicle, 0, 0] on,
    count of them: the first word of a fresh generator for each trial t0 .. t0 + count - 1."""
    bg = np.random.Philox(key=seed)
    state = bg.state
    state["state"]["counter"] = np.array([t0, vehicle, 0, 0], dtype=np.uint64)
    state["buffer_pos"] = 4
    bg.state = state
    return bg.random_raw(4 * count)[::4].tolist()


def pd_mistune_by_stages(n: int, k_min: float, k_max: float, trials: int,
                         seed: int, grid=None) -> MistuneReport:
    """pd_mistune_experiment through cascade_gain: each gain drawn by pd_gain_fresh,
    each stage c = 1 + k s Routh-tested, its T read off the gang of four."""
    if grid is None:
        grid = default_grid()
    s = Polynomial([0, 1])
    peaks, argmaxes = [], []
    for t in range(1, trials + 1):
        stages = [RationalFunction(Polynomial([1]) + pd_gain_fresh(seed, t, v, k_min, k_max) * s)
                  for v in range(1, n + 1)]
        prof = cascade_gain(stages, 2, grid)
        peaks.append(prof.peak)
        argmaxes.append(prof.argmax_omega)
    return MistuneReport(n, trials, seed, float(k_min), float(k_max), _SCHEME,
                         tuple(peaks), tuple(argmaxes),
                         float(np.median(peaks)), float(max(peaks)))


def pd_mistune_full_grid(n: int, k_min: float, k_max: float, trials: int, seed: int, grid=None):
    """(peaks, argmax omegas) of pd_mistune_experiment's trials, its engine run on every grid sample."""
    grid = default_grid() if grid is None else grid
    ks = _GainDrawer(seed, k_min, k_max).gains(1, trials, range(1, n + 1))
    return _trial_peaks(ks, trials, list(grid))


def pd_gains(n: int, k_min: float, k_max: float, trials: int, seed: int):
    """Each trial's exact gains, vehicle 1 first, each from a generator built for it."""
    return [[pd_gain_fresh(seed, t, v, k_min, k_max) for v in range(1, n + 1)]
            for t in range(1, trials + 1)]


def pd_cascade_squared(ks, w: float) -> Fraction:
    """prod_k |T_k(j w)|^2 for T_k = (1 + k s)/(s^2 + k s + 1), exact at the float w."""
    x = Fraction(w) ** 2
    out = Fraction(1)
    for k in ks:
        k2x = Fraction(k) ** 2 * x
        out *= (1 + k2x) / ((1 - x) ** 2 + k2x)
    return out


def within_rel(value: float, exact_squared: Fraction, rel: float) -> bool:
    """Whether value lies within rel (relative) of sqrt(exact_squared), decided exactly."""
    if value == math.inf:
        return exact_squared >= Fraction(sys.float_info.max) ** 2
    v2 = Fraction(value) ** 2
    return (1 - Fraction(rel)) ** 2 * exact_squared <= v2 <= (1 + Fraction(rel)) ** 2 * exact_squared


# ---------------------------------------------------------------- numpy's CPU dispatch
# numpy's AVX-512 float64 log, exp, expm1, log1p, arctan and power round
# differently from libm in the last bit; with those targets off they match it

def _umath():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def avx512_dispatch_targets():
    """numpy's AVX-512 dispatch targets that run in this process, by the names
    NPY_DISABLE_CPU_FEATURES takes to turn them off."""
    umath = _umath()
    return [t for t in umath.__cpu_dispatch__
            if (t.startswith("AVX512") or t == "X86_V4") and umath.__cpu_features__.get(t)]


def avx512_dispatched() -> bool:
    """Whether numpy runs its AVX-512 float64 loops in this process."""
    return bool(_umath().__cpu_features__.get("AVX512_SKX"))
