"""The three benchmark workloads and the oracles that check their outputs.

Each workload is three platoonctrl commands run one after another, each in
a fresh process (closed loop, one client). A check reads the files a
command wrote and compares them with something computed without
platoonctrl: a closed form, a stored exact reference, or a direct numpy
evaluation of the documented formula. A check returns None when the output
is right and a one-line reason when it is not.

Why these workloads (see README.md for the layer predictions):

* bidir-exact: exact rational-matrix algebra (poly mul/gcd, ratfun
  canonicalisation, bidir substitution and matmul) on many medium-degree
  polynomials with small coefficients; bode also writes a 5.5 MB CSV.
* synth-family: the same exact layers on few polynomials with huge
  coefficients (6k to 18k bits), the Youla scan with many rejected
  candidates, and the family product sweep; both the write path (synth)
  and the read path (family-check). The third command is the known
  count-16 defect and is expected to fail until it is fixed.
* cascade-sweep: the float magnitude engine and cascade on degree <= 2
  polynomials; the exact-algebra bypass. Only this workload uses the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``argv`` excludes ``--out``; the runner appends ``--out <pass>/<out>``.
    ``{pass}`` in an argument is replaced by the pass directory. Files named
    in ``stable_files`` must be byte-identical in every pass of a run.
    """

    label: str
    argv: tuple
    out: str
    check: Callable[[str], Optional[str]]
    stable_files: tuple = ()


# ----------------------------------------------------------------------
# small helpers

def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _report(out: str) -> dict:
    return _read_json(os.path.join(out, "report.json"))


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _binom_row(d: int) -> list:
    return [math.comb(d, k) for k in range(d + 1)]


def _padd(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _sensitivity_closed_form(i: int, j: int):
    """(num, den) integer coefficients, ascending, of S_ij (1-based).

    S_ij = s (1 + s * sum_{k=1}^{min(i,j)-1} (s+1)^(2k-1)) / (s+1)^(i+j-1).
    The numerator is -1 at s = -1, so the pair is coprime and the
    denominator monic: this is the canonical form platoonctrl writes.
    """
    total = [0]
    for k in range(1, min(i, j)):
        total = _padd(total, _binom_row(2 * k - 1))
    num = [0] + _padd([1], [0] + total)
    while num[-1] == 0:
        num.pop()
    return num, _binom_row(i + j - 1)


def _sens_abs(i: int, j: int, omega: float) -> float:
    s = 1j * omega
    total = sum((s + 1) ** (2 * k - 1) for k in range(1, min(i, j)))
    return abs(s * (1 + s * total) / (s + 1) ** (i + j - 1))


def _coeffs(strings) -> list:
    out = []
    for t in strings:
        f = Fraction(t)
        out.append(int(f) if f.denominator == 1 else f)
    return out


# ----------------------------------------------------------------------
# bidir-exact

def _check_verify_lemma(out: str) -> Optional[str]:
    if _report(out)["results"].get("factorization_exact") is not True:
        return "factorization_exact is not true"
    return None


def _check_sensitivity(n: int):
    def check(out: str) -> Optional[str]:
        doc = _read_json(os.path.join(out, "sensitivity.json"))
        entries = doc["entries"]
        if len(entries) != n * n:
            return f"{len(entries)} entries, expected {n * n}"
        for e in entries:
            num, den = _sensitivity_closed_form(e["row"], e["col"])
            if _coeffs(e["num"]) != num or _coeffs(e["den"]) != den:
                return f"entry ({e['row']},{e['col']}) differs from the closed form"
        return None
    return check


def _check_bode(n: int, points: int):
    def check(out: str) -> Optional[str]:
        side = _read_json(os.path.join(out, "bode.json"))
        if side.get("verdict") is not True:
            return "bode verdict is not true"
        with open(os.path.join(out, "bode.csv"), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "omega,row,col,abs,abs_db" or len(lines) != 1 + points * n * n:
            return f"bode.csv has {len(lines) - 1} rows, expected {points * n * n}"
        # every 97th row against the closed form and the reference bound
        for line in lines[1::97]:
            om, i, j, mag, _ = line.split(",")
            om, mag = float(om), float(mag)
            want = _sens_abs(int(i), int(j), om)
            if not _rel_close(mag, want, 1e-7):
                return f"|S_{i}{j}(j{om:g})| = {mag!r}, closed form {want!r}"
            if mag > om / math.sqrt(1.0 + om * om) + 1e-9:
                return f"|S_{i}{j}(j{om:g})| exceeds |jw/(jw+1)|"
        return None
    return check


def _bidir_exact(seed: int) -> list:
    # default bode grid 1e-3..1e3 at 100 points per decade: 601 samples
    return [
        Command("verify-lemma --n 40", ("verify-lemma", "--n", "40"), "c1",
                _check_verify_lemma),
        Command("sensitivity --n 20", ("sensitivity", "--n", "20"), "c2",
                _check_sensitivity(20)),
        Command("bode --n 12", ("bode", "--n", "12"), "c3", _check_bode(12, 601)),
    ]


# ----------------------------------------------------------------------
# synth-family

_SYNTH_REF = os.path.join(_HERE, "reference", "synth_m3_count10.json")


def _check_family_file(out: str, eps: float) -> Optional[str]:
    fam = _read_json(os.path.join(out, "family.json"))
    pc = fam.get("product_check", {})
    prod = pc.get("max_product")
    if not (isinstance(prod, float) and math.isfinite(prod)
            and prod <= 1 + eps + 1e-6 and pc.get("pass") is True):
        return f"family product {prod!r} not within 1 + {eps} + 1e-6"
    return None


def _check_synth_m3(out: str) -> Optional[str]:
    ref = _read_json(_SYNTH_REF)
    bad = _check_family_file(out, ref["epsilon"])
    if bad:
        return bad
    fam = _read_json(os.path.join(out, "family.json"))
    if [Fraction(g) for g in fam["gammas"]] != [Fraction(g) for g in ref["gammas"]]:
        return "gammas differ from the stored exact reference"
    return None


def _check_family_check(out: str) -> Optional[str]:
    res = _report(out)["results"]
    if not (res.get("members_stable") is True and res.get("product_ok") is True):
        return "family-check did not confirm stability and the product bound"
    return None


def _check_synth_m4(out: str) -> Optional[str]:
    return _check_family_file(out, 0.1)


def _synth_family(seed: int) -> list:
    return [
        Command("synth --m 3 --count 10", ("synth", "--m", "3", "--count", "10"),
                "c1", _check_synth_m3),
        Command("family-check", ("family-check", "--file", "{pass}/c1/family.json"),
                "c2", _check_family_check),
        Command("synth --m 4 --count 16", ("synth", "--m", "4", "--count", "16"),
                "c3", _check_synth_m4),
    ]


# ----------------------------------------------------------------------
# cascade-sweep

# FrequencyGrid(1e-4, 1e4, 200), the documented default sweep
_DEFAULT_OMEGAS = np.logspace(-4.0, 4.0, 1601)
_DEFAULT_OMEGAS[0], _DEFAULT_OMEGAS[-1] = 1e-4, 1e4


def _pd_log_abs(k: float, om: np.ndarray) -> np.ndarray:
    # T = (1 + k s) / (s^2 + k s + 1) for the double integrator under 1 + k s
    kw2 = (k * om) ** 2
    return 0.5 * (np.log1p(kw2) - np.log((1.0 - om * om) ** 2 + kw2))


def _pd_gain(seed: int, trial: int, vehicle: int, kmin: float, kmax: float) -> float:
    # the documented scheme: Philox4x64, key = seed, counter = [trial, vehicle, 0, 0]
    u = np.random.Generator(np.random.Philox(key=seed, counter=[trial, vehicle, 0, 0])).random()
    return float(Fraction(kmin) + (Fraction(kmax) - Fraction(kmin)) * Fraction(u))


def _check_pd_random(seed: int, n: int, trials: int):
    probe = (1, 1 + random.Random(seed).randrange(trials))

    def check(out: str) -> Optional[str]:
        with open(os.path.join(out, "mistune.csv"), "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if rows[0] != "trial,peak,argmax_omega" or len(rows) != trials + 1:
            return f"mistune.csv has {len(rows) - 1} trials, expected {trials}"
        for t in probe:
            total = sum(_pd_log_abs(_pd_gain(seed, t, v, 0.5, 2.0), _DEFAULT_OMEGAS)
                        for v in range(1, n + 1))
            want = math.exp(float(total.max()))
            got = float(rows[t].split(",")[1])
            if not _rel_close(got, want, 1e-9):
                return f"trial {t} peak {got!r}, direct evaluation {want!r}"
        return None
    return check


def _pd_peak(k: float):
    # d/dx of |T|^2 at x = omega^2 vanishes where k^2 x^2 + 2x - 2 = 0
    x = (math.sqrt(1.0 + 2.0 * k * k) - 1.0) / (k * k)
    return math.sqrt((1.0 + k * k * x) / ((1.0 - x) ** 2 + k * k * x)), math.sqrt(x)


def _check_middleton_value(doc: dict) -> Optional[str]:
    # a type-2 loop with no right-half-plane zeros has integral exactly 0
    if not abs(doc["value"]) <= doc["truncation_bound"] + 1e-6:
        return f"middleton integral {doc['value']!r}, expected 0"
    return None


def _check_homogeneous(k: float, n: int):
    def check(out: str) -> Optional[str]:
        res = _report(out)["results"]
        peak, w0 = _pd_peak(k)
        if not (_rel_close(res["hinf"], peak, 1e-8) and _rel_close(res["omega0"], w0, 1e-5)):
            return f"peak {res['hinf']!r} at {res['omega0']!r}, closed form {peak!r} at {w0!r}"
        with open(os.path.join(out, "growth.csv"), "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != n:
            return f"growth.csv has {len(rows)} rows, expected {n}"
        for row in rows:
            m, gain = row.split(",")
            if not _rel_close(float(gain), peak ** int(m), 1e-7):
                return f"growth row {m}: {gain} != peak^{m}"
        return _check_middleton_value(res["middleton"])
    return check


def _check_middleton(out: str) -> Optional[str]:
    return _check_middleton_value(_report(out)["results"])


def _controller_gain(seed: int) -> str:
    """The derivative gain k of c = 1 + k s: a two-decimal value in [0.5, 2]."""
    return f"{random.Random(seed).randrange(50, 201) / 100:.2f}"


def _cascade_sweep(seed: int) -> list:
    k = _controller_gain(seed)
    c = f"1+{k}*s"
    return [
        Command("pd-random --n 20 --trials 200",
                ("pd-random", "--n", "20", "--trials", "200", "--seed", str(seed)),
                "c1", _check_pd_random(seed, 20, 200), ("mistune.csv",)),
        Command(f"homogeneous --c {c}", ("homogeneous", "--m", "2", "--c", c, "--n", "40"),
                "c2", _check_homogeneous(float(k), 40), ("growth.csv",)),
        Command(f"middleton --c {c}", ("middleton", "--m", "2", "--c", c),
                "c3", _check_middleton),
    ]


WORKLOADS = {
    "bidir-exact": _bidir_exact,
    "synth-family": _synth_family,
    "cascade-sweep": _cascade_sweep,
}
