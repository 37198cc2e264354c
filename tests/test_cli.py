"""Command-line contract: exit codes, artifacts, schemas, determinism."""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
import os
from fractions import Fraction

import pytest

from platoonctrl import (RationalFunction, cli, default_grid, internal_stability,
                         middleton_integral, parse_rational, plant, synthesis)
from platoonctrl.cli import _write_json, main
from platoonctrl.freq import hinf_norm
from platoonctrl.synthesis import _scan_values, search_parameters

from oracles import cascade_gain, pd_cascade_squared, within_rel


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _report(out):
    return json.loads(_read(os.path.join(out, "report.json")))


def _reject_constant(token):
    raise ValueError(f"report.json holds the non-JSON token {token}")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------- exit codes

def test_verify_lemma_pass(tmp_path):
    out = str(tmp_path)
    assert main(["verify-lemma", "--n", "12", "--out", out]) == 0
    rep = _report(out)
    assert rep["schema"] == "run/1"
    assert rep["command"] == "verify-lemma"
    assert rep["parameters"] == {"n": 12}
    assert rep["results"]["factorization_exact"] is True
    assert "duration_seconds" in rep["timing"]


@pytest.mark.parametrize("argv, parameters", [
    (["verify-lemma", "--n", "3"], {"n": 3}),
    (["sensitivity", "--n", "2"], {"n": 2}),
    (["bode", "--n", "2", "--ppd", "2"], {"n": 2, "wmin": 1e-3, "wmax": 1e3, "ppd": 2}),
    (["synth", "--m", "1", "--count", "3"], {"m": 1, "eps": 0.1, "bw": 1.0, "count": 3}),
    (["family-check", "--file", "FAMILY"], {"file": "FAMILY"}),
    (["homogeneous", "--m", "2", "--c", "1+s"], {"m": 2, "c": "1+s", "n": 20}),
    (["middleton", "--m", "1", "--c", "1"], {"m": 1, "c": "1"}),
    (["pd-random", "--n", "2", "--trials", "2"],
     {"n": 2, "kmin": 0.5, "kmax": 2.0, "trials": 2, "seed": 42}),
], ids=["verify-lemma", "sensitivity", "bode", "synth", "family-check", "homogeneous",
        "middleton", "pd-random"])
def test_report_echoes_every_flag_but_out(tmp_path, argv, parameters):
    if argv[0] == "family-check":
        # the file is synth's, written where the report is not
        assert main(["synth", "--m", "1", "--out", str(tmp_path / "synth")]) == 0
        argv = argv[:-1] + [str(tmp_path / "synth" / "family.json")]
        parameters = {"file": argv[-1]}
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 0
    rep = _report(out)
    assert rep["command"] == argv[0]
    assert rep["parameters"] == parameters


@pytest.mark.parametrize("argv, exit_code", [
    (["homogeneous", "--m", "2", "--c", "s"], 1),
    (["synth", "--m", "2", "--eps", "1e-9"], 1),
    (["homogeneous", "--m", "1", "--c=" + "(" * 300 + "1" + ")" * 300], 2),
    (["homogeneous", "--m", "1", "--c=" + "-" * 5000 + "1"], 2),
    (["homogeneous", "--m", "1", "--c=" + "2^" * 5000 + "2"], 2),
    # each power is refused before it is computed
    (["homogeneous", "--m", "1", "--c", "2^2^2^2^2^2"], 2),
    (["homogeneous", "--m", "1", "--c", "s^100000000"], 2),
    # inside the size cap, but each charged past the work cap before it is computed
    (["homogeneous", "--m", "1", "--c", "(1+s)^5000"], 2),
    (["homogeneous", "--m", "1", "--c", "(1+s)^2500*(1+s)^2500"], 2),
    # a length past its command's cap is refused before any work
    (["verify-lemma", "--n", "100001"], 2),
    (["homogeneous", "--m", "2", "--c", "1+s", "--n", "100001"], 2),
    (["pd-random", "--n", "100000", "--trials", "1"], 2),
    # pd-random's cap counts n times trials times the window's samples
    (["pd-random", "--n", "1", "--trials", "100000000"], 2),
    (["pd-random", "--n", "10000"], 2),
    (["sensitivity", "--n", "121"], 2),
    # bode's cap counts (n+1)^2 rows per grid sample, so the grid counts too
    (["bode", "--n", "1581", "--wmin", "1", "--wmax", "10", "--ppd", "1"], 2),
    (["bode", "--n", "1", "--wmin", "1", "--wmax", "10", "--ppd", "1250000"], 2),
    (["bode", "--n", "1", "--ppd", "1" + "0" * 400], 2),
], ids=["unstable", "scan-exhausted", "parentheses-300", "unary-minus-5000", "power-5000",
        "power-tower", "power-s-1e8", "costly-power", "costly-product",
        "verify-lemma-n-cap", "homogeneous-n-cap", "pd-random-n-cap",
        "pd-random-trials-cap", "pd-random-default-trials-at-n-cap", "sensitivity-n-cap",
        "bode-n-cap", "bode-ppd-cap", "bode-ppd-past-double-range"])
def test_a_command_that_raises_writes_no_report(tmp_path, caplog, argv, exit_code):
    assert main(argv + ["--out", str(tmp_path)]) == exit_code
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert not (tmp_path / "report.json").exists()


def test_usage_errors(caplog):
    assert main(["verify-lemma", "--n", "0"]) == 2
    assert main(["verify-lemma"]) == 2
    # the library checks these ranges, and its message is the one error line
    for argv, message in (
            (["bode", "--n", "2", "--wmin", "10", "--wmax", "1"],
             "need 0 < omega_min < omega_max < inf"),
            (["pd-random", "--n", "3", "--kmin", "2", "--kmax", "1"],
             "need 0 < k_min <= k_max")):
        caplog.clear()
        assert main(argv) == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [message]
    assert main(["homogeneous", "--m", "2", "--c", "1+"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_io_failure_exit_code(tmp_path):
    missing = str(tmp_path / "nope" / "family.json")
    assert main(["family-check", "--file", missing]) == 3


# ---------------------------------------------------------------- bode

def test_bode_artifacts(tmp_path):
    out = str(tmp_path)
    assert main(["bode", "--n", "2", "--wmin", "1e-2", "--wmax", "1e2",
                 "--ppd", "10", "--out", out]) == 0
    side = json.loads(_read(os.path.join(out, "bode.json")))
    assert side["schema"] == "bode/2"
    assert side["verdict"] is True
    assert side["bound"] == "abs(j*omega/(j*omega+1))"
    assert side["basis"].startswith("length-independence lemma")
    lines = _read(os.path.join(out, "bode.csv")).splitlines()
    assert lines[0] == "omega,row,col,abs,abs_db"
    assert len(lines) == 1 + 41 * 4


@pytest.mark.parametrize("n, wmin, wmax, ppd", [
    ("2", "1e-3", "1e200", "2"),    # omega^2 overflows in the reference bound
    ("4", "1e-300", "1e300", "1"),  # wmax / wmin overflows in the grid
])
def test_bode_extreme_ranges(tmp_path, n, wmin, wmax, ppd):
    out = str(tmp_path)
    assert main(["bode", "--n", n, "--wmin", wmin, "--wmax", wmax,
                 "--ppd", ppd, "--out", out]) == 0
    side = json.loads(_read(os.path.join(out, "bode.json")))
    assert side["verdict"] is True
    assert side["worst_excess"] <= 1e-9


def test_bode_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert main(["bode", "--n", "1", "--ppd", "5", "--out", out]) == 0
    assert _read(os.path.join(a, "bode.csv")) == _read(os.path.join(b, "bode.csv"))
    assert _read(os.path.join(a, "bode.json")) == _read(os.path.join(b, "bode.json"))


# ---------------------------------------------------------------- sensitivity export

def test_sensitivity_export(tmp_path):
    out = str(tmp_path)
    assert main(["sensitivity", "--n", "3", "--out", out]) == 0
    doc = json.loads(_read(os.path.join(out, "sensitivity.json")))
    assert doc["schema"] == "sensitivity/1"
    assert len(doc["entries"]) == 9
    e11 = next(e for e in doc["entries"] if e["row"] == 1 and e["col"] == 1)
    assert e11["num"] == ["0", "1"]
    assert e11["den"] == ["1", "1"]


def test_write_json_nonfinite_as_null(tmp_path):
    doc = {"peak": float("nan"), "bands": [1.5, float("inf"), {"low": float("-inf")}],
           "nested": {"x": (2.0, float("nan"))}}
    path = _write_json(str(tmp_path), "doc.json", doc)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    back = json.loads(_read(path), parse_constant=reject)
    assert back == {"peak": None, "bands": [1.5, None, {"low": None}],
                    "nested": {"x": [2.0, None]}}


# ---------------------------------------------------------------- synth and family-check

@pytest.mark.parametrize("m", [1, 2, 4])
def test_synth_family(tmp_path, m):
    out = str(tmp_path)
    assert main(["synth", "--m", str(m), "--eps", "0.1", "--bw", "1",
                 "--count", "10", "--out", out]) == 0
    fam = json.loads(_read(os.path.join(out, "family.json")))
    assert fam["schema"] == "family/3"
    assert fam["count"] == 10 and len(fam["gammas"]) == 10
    assert set(fam["controller"]) == {"num", "den"}
    assert fam["product_check"]["pass"] is True
    # the proven bound is the certificate's peak
    assert fam["product_check"]["max_product"] == fam["certificate"]["peak"] <= 1.1
    rep = _report(out)
    assert rep["results"]["peak"] <= 1.1
    assert main(["family-check", "--file", os.path.join(out, "family.json"),
                 "--out", out]) == 0
    rep2 = _report(out)
    assert rep2["results"]["product_ok"] is True
    assert rep2["results"]["members_stable"] is True
    assert rep2["results"]["certificate_ok"] is True
    assert rep2["results"]["max_product"] == rep2["results"]["peak"] == rep["results"]["peak"]


@pytest.mark.parametrize("argv, ell", [
    (["synth", "--m", "1"], 1),
    (["synth", "--m", "3", "--count", "3"], 4),
], ids=["m1", "m3"])
def test_synth_report_restates_family_json(tmp_path, argv, ell):
    out = str(tmp_path)
    assert main(argv + ["--out", out]) == 0
    fam = json.loads(_read(os.path.join(out, "family.json")))
    expected = {k: v for k, v in fam["certificate"].items() if k != "epsilon"}
    expected.update(ell=ell, max_product=fam["product_check"]["max_product"],
                    product_ok=fam["product_check"]["pass"])
    assert set(expected) == {"gamma_a", "gamma_b", "peak", "omega_low", "omega_high",
                             "band_empty", "ell", "max_product", "product_ok"}
    assert _report(out)["results"] == expected


@pytest.mark.parametrize("argv, exit_code, message", [
    (["synth", "--m", "2", "--eps", "2"], 2, "need 0 < epsilon <= 1"),
    (["synth", "--m", "3", "--count", "26"], 2, "count capped at 25"),
    # the m = 1 certificate is a closed form, valid for every epsilon > 0
    (["synth", "--m", "1", "--eps", "2"], 0, None),
], ids=["eps-2", "count-26", "m1-eps-2"])
def test_synth_input_ranges(tmp_path, caplog, argv, exit_code, message):
    assert main(argv + ["--out", str(tmp_path)]) == exit_code
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert [e.split(";")[0] for e in errors] == ([] if message is None else [message])
    assert (tmp_path / "report.json").exists() == (exit_code == 0)


@pytest.mark.parametrize("count", [13, 25])
def test_synth_m4_long_family(tmp_path, count):
    # members past the 12th have coefficients of thousands of bits; the
    # verdict compares the gammas with the band edges and builds no member
    out = str(tmp_path)
    assert main(["synth", "--m", "4", "--count", str(count), "--out", out]) == 0
    path = os.path.join(out, "family.json")
    for doc in (_report(out)["results"], json.loads(_read(path))["product_check"]):
        assert isinstance(doc["max_product"], float)
        assert doc["max_product"] <= 1.1 + 1e-6
    assert main(["family-check", "--file", path, "--out", out]) == 0


def test_family_check_reads_family2(tmp_path, synth_m3_family):
    # family/2 differs only in product_check, a swept value there, not read
    doc = copy.deepcopy(synth_m3_family)
    doc["schema"] = "family/2"
    doc["product_check"]["max_product"] = 1.0706251268697307
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert main(["family-check", "--file", str(path), "--out", str(tmp_path)]) == 0
    assert _report(str(tmp_path))["results"]["max_product"] == doc["certificate"]["peak"]


def test_family_check_reads_long_coefficients(tmp_path):
    # D/D with a 5001-digit D: past Python's default int/str digit cap
    big = "1" + "0" * 5000
    doc = {
        "schema": "family/3", "m": 1, "epsilon": 0.1, "omega_bw": 1.0, "count": 1,
        "gammas": ["1"],
        "controller": {"num": [big], "den": [big]},
        "certificate": {"epsilon": 0.1, "peak": 1.0, "omega_low": 1.0,
                        "omega_high": 1.0, "band_empty": True,
                        "gamma_a": None, "gamma_b": None},
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert main(["family-check", "--file", str(path), "--out", str(tmp_path)]) == 0
    assert _report(str(tmp_path))["results"]["product_ok"] is True


def test_family_check_rejects_bad_schema(tmp_path):
    path = tmp_path / "family.json"
    path.write_text('{"schema": "family/9"}')
    assert main(["family-check", "--file", str(path)]) == 2


def _set(path, value):
    def mutate(doc):
        *parents, key = path
        for k in parents:
            doc = doc[k]
        doc[key] = value
    return mutate


def _drop(key):
    def mutate(doc):
        del doc[key]
    return mutate


@pytest.mark.parametrize("mutate", [
    None,                                    # not JSON at all
    lambda doc: [doc],                       # JSON, but not an object
    _drop("certificate"),
    _set(("gammas", 0), "abc"),
    _set(("gammas",), "abc"),
    lambda doc: doc.update(gammas=[], count=0),
    _set(("count",), 4),
    _set(("omega_bw",), -1),
    _set(("omega_bw",), float("inf")),
    _set(("certificate", "epsilon"), float("nan")),
    _set(("certificate", "gamma_b"), "1e400"),  # band_grid reads it as a float
    # Fraction would compute 10^99999999 in full: the parser's exponent cap
    _set(("gammas", 0), "1e99999999"),
    _set(("controller", "num", 0), "1e99999999"),
    _set(("certificate", "gamma_a"), "1e99999999"),
    _set(("certificate", "gamma_b"), "1e99999999"),
    _set(("certificate", "gamma_b"), "0"),
    _set(("controller", "den"), ["0"]),
    _set(("controller", "num"), "1+s"),
    _set(("m",), "three"),
    _set(("m",), 10 ** 9),  # no base of this numerator degree stabilises 1/s^m
    _set(("schema",), "family/1"),  # stored every member; no longer read
], ids=["not-json", "not-object", "no-certificate", "gamma-abc", "gammas-string",
        "no-gammas", "count-mismatch", "omega_bw-negative", "omega_bw-inf",
        "epsilon-nan", "gamma_b-1e400", "gamma-1e99999999", "coefficient-1e99999999",
        "gamma_a-1e99999999", "gamma_b-1e99999999", "gamma_b-zero", "zero-denominator",
        "num-string", "m-string", "m-huge", "schema-family1"])
def test_family_check_malformed_file_is_a_usage_error(tmp_path, caplog, synth_m3_family, mutate):
    doc = copy.deepcopy(synth_m3_family)
    if mutate is None:
        text = "{not json"
    else:
        doc = mutate(doc) or doc
        text = json.dumps(doc)
    path = tmp_path / "family.json"
    path.write_text(text)
    assert main(["family-check", "--file", str(path), "--out", str(tmp_path)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert not (tmp_path / "report.json").exists()


def _overlap(doc):
    # the third band slides a little into the second
    doc["gammas"][2] = str(Fraction(doc["gammas"][2]) * Fraction(999, 1000))


def _narrow(doc):
    # band_grid samples between the new and the true omega_high have |T| > 1
    doc["certificate"]["omega_high"] /= 2


@pytest.mark.parametrize("mutate, reported", [
    (_overlap, True),
    (_narrow, True),
    # the certificate still holds, and the bandwidth comparison fails
    (_set(("certificate", "omega_high"), 1e306), False),
    (_set(("certificate", "omega_high"), 1e308), False),
], ids=["bands-overlap", "omega_high-narrowed", "omega_high-1e306", "omega_high-1e308"])
def test_family_check_false_claim_fails(tmp_path, caplog, synth_m3_family, mutate, reported):
    doc = copy.deepcopy(synth_m3_family)
    mutate(doc)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert main(["family-check", "--file", str(path), "--out", str(tmp_path)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert (tmp_path / "report.json").exists() == reported
    if reported:
        res = json.loads(_read(tmp_path / "report.json"), parse_constant=_reject_constant)
        assert res["results"]["product_ok"] is False
        assert res["results"]["max_product"] is None


def test_synth_certifies_each_candidate_once(tmp_path, monkeypatch, call_counts):
    # the scan's certificate is the design's: nothing is certified after it,
    # not even for the family, whose verdict compares gammas with that
    # certificate's band. Each scanned candidate gets one budget count, a
    # root isolation of U^2 B - A, and every rejected candidate is rejected
    # by it, so only the winner's peak is enclosed, by one isolation of its
    # stationary points and one count that proves the bound, and only the
    # winner's band isolates the roots of A - B. The winner's
    # youla_closed_loop is a StableLoop, so the one Routh test is the
    # shipped loop's characteristic polynomial
    monkeypatch.setattr(synthesis, "search_parameters", search_parameters.__wrapped__)
    counts = call_counts("_certify", "certify_closed_loop", "internal_stability",
                         "hurwitz_stable", "_positive_roots", "hinf_norm")
    assert main(["synth", "--m", "3", "--count", "10", "--out", str(tmp_path)]) == 0
    res = _report(str(tmp_path))["results"]
    vals = _scan_values()
    ga, gb = Fraction(res["gamma_a"]), Fraction(res["gamma_b"])
    scanned = 25 * vals.index(ga) + vals.index(gb / ga) + 1
    assert counts["_certify"] == scanned and counts["certify_closed_loop"] == 0
    assert counts["internal_stability"] == 1 and counts["hinf_norm"] == 1
    assert counts["hurwitz_stable"] == 1 and counts["_positive_roots"] == scanned + 1 + 2


def test_synth_m1_certifies_from_the_closed_form(tmp_path, call_counts):
    # T = 1/(s+1) is certified without a grid; the shipped loop's one
    # internal_stability test is the one Routh test
    counts = call_counts("certify_closed_loop", "hurwitz_stable")
    assert main(["synth", "--m", "1", "--out", str(tmp_path)]) == 0
    assert counts["certify_closed_loop"] == 0 and counts["hurwitz_stable"] == 1


def test_homogeneous_routh_tests_its_loop_once(tmp_path, call_counts):
    # internal_stability returns a StableLoop, so the peak search tests
    # nothing; (1+s)^20 makes T biproper, so the Middleton integral is skipped
    argv = ["homogeneous", "--m", "2", "--c", "(1+s)^20"]
    counts = call_counts("hurwitz_stable")
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert counts["hurwitz_stable"] == 1
    # a plain copy of T carries no proof: each routine Routh-tests its
    # denominator once more, and the results are the same bits
    T = internal_stability(plant(2), parse_rational("1+1.23*s"))
    plain = RationalFunction(T.num, T.den)
    # middleton_integral's one test on the StableLoop is of T's numerator
    for routine, tests in ((hinf_norm, 0), (middleton_integral, 1)):
        counts.clear()
        proven = routine(T)
        assert counts["hurwitz_stable"] == tests
        assert repr(routine(plain)) == repr(proven)
        assert counts["hurwitz_stable"] == 2 * tests + 1


@pytest.mark.parametrize("argv", [["homogeneous", "--m", "2", "--c", "1+1.23*s"],
                                  ["middleton", "--m", "2", "--c", "1+0.7*s"]],
                         ids=["homogeneous", "middleton"])
def test_middleton_routh_tests_the_loop_and_the_numerator(tmp_path, call_counts, argv):
    # one test of the characteristic polynomial, whose StableLoop spares
    # T's denominator, and one of T's numerator for the zero sum
    counts = call_counts("hurwitz_stable")
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert counts["hurwitz_stable"] == 2


@pytest.mark.parametrize("argv, exit_code, reports", [
    (["homogeneous", "--m", "2", "--c", "1+0.7*s"], 0, 1),
    (["homogeneous", "--m", "2", "--c", "-1"], 1, 1),
    (["middleton", "--m", "2", "--c", "1+0.7*s"], 0, 1),
    (["synth", "--m", "4", "--count", "16"], 0, 1),
    # only PS = p/(1+pc) keeps the plant pole at 0 (c = s cancels it in T,
    # c = 0 makes T zero), and it is a root of the characteristic polynomial
    (["homogeneous", "--m", "2", "--c", "s"], 1, 1),
    (["middleton", "--m", "2", "--c", "0"], 1, 1),
])
def test_commands_read_T_off_the_stability_report(tmp_path, call_counts, argv,
                                                   exit_code, reports):
    counts = call_counts("internal_stability")
    assert main(argv + ["--out", str(tmp_path)]) == exit_code
    assert counts["internal_stability"] == reports
    assert (tmp_path / "report.json").exists() == (exit_code == 0)


def test_family_check_reads_T_off_its_stability_report(tmp_path, call_counts,
                                                       synth_m3_family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(synth_m3_family))
    counts = call_counts("internal_stability", "hurwitz_stable")
    assert main(["family-check", "--file", str(path), "--out", str(tmp_path)]) == 0
    # check_certificate's peak search reads internal_stability's StableLoop
    assert counts["internal_stability"] == 1 and counts["hurwitz_stable"] == 1


@pytest.mark.parametrize("bw", ["2e4", "1e300", "1e-300"])
def test_synth_m1_any_bandwidth(tmp_path, bw):
    # T = 1/(s+1) never exceeds 1, so every bandwidth holds: gamma = 1/bw
    # exactly, whatever the range of bw
    out = str(tmp_path)
    assert main(["synth", "--m", "1", "--bw", bw, "--out", out]) == 0
    assert _report(out)["results"]["product_ok"] is True
    assert main(["family-check", "--file", os.path.join(out, "family.json"),
                 "--out", out]) == 0


# ---------------------------------------------------------------- homogeneous / middleton

def test_homogeneous_improper_loop_has_no_finite_peak(tmp_path, caplog):
    # 1/s under 1 - s closes with the constant characteristic polynomial 1,
    # so T = 1 - s is improper: hinf_norm raises, and the error exit writes
    # no report
    assert main(["homogeneous", "--m", "1", "--c", "1-s", "--out", str(tmp_path)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == ["closed loop has no finite peak"]
    assert not (tmp_path / "report.json").exists()


def test_homogeneous_report(tmp_path):
    out = str(tmp_path)
    assert main(["homogeneous", "--m", "2", "--c", "1+s", "--n", "20",
                 "--out", out]) == 0
    rep = _report(out)
    assert rep["results"]["growth_flagged"] is True
    assert rep["results"]["middleton"]["value"] >= -1e-3
    lines = _read(os.path.join(out, "growth.csv")).splitlines()
    assert lines[0] == "n,gain" and len(lines) == 21


def test_homogeneous_flat_case(tmp_path):
    out = str(tmp_path)
    assert main(["homogeneous", "--m", "1", "--c", "1", "--n", "5", "--out", out]) == 0
    rep = _report(out)
    assert rep["results"]["growth_flagged"] is False
    assert abs(rep["results"]["hinf"] - 1.0) < 1e-12


def test_homogeneous_destabilising_exit(tmp_path):
    assert main(["homogeneous", "--m", "2", "--c", "-1", "--out", str(tmp_path)]) == 1


def test_homogeneous_improper_tail_still_reports(tmp_path):
    # internally stabilising, but T is not strictly proper: the integral is
    # skipped with a reason while the growth table still lands
    out = str(tmp_path)
    assert main(["homogeneous", "--m", "2", "--c", "1+s+s^2", "--n", "5",
                 "--out", out]) == 0
    rep = _report(out)
    assert "skipped" in rep["results"]["middleton"]


@pytest.mark.parametrize("command", ["homogeneous", "middleton"])
def test_gain_past_double_range(tmp_path, command):
    # T's leading-coefficient ratio is 1e400, past what float() can hold;
    # T'(0) = 0 exactly, and the closed form reads nothing else off T
    out = str(tmp_path)
    assert main([command, "--m", "2", "--c", "1e400*(1+s)", "--out", out]) == 0
    results = json.loads(_read(os.path.join(out, "report.json")),
                         parse_constant=_reject_constant)["results"]
    if command == "homogeneous":
        # |T|^2 - 1 = x (2c - x)/B for c = 1e400: the peak exceeds 1 by
        # about 1e-400, so the proven bound is the next float after 1
        assert results["hinf"] == 1.0000000000000002
        assert results["growth_flagged"] is True
        results = results["middleton"]
    assert abs(results["value"]) <= results["truncation_bound"]


def test_homogeneous_finds_a_resonance_far_below_the_grid(tmp_path):
    # T = c(1+s)/(s^2+cs+c), c = 1e-400, peaks at 1e200 near omega = 1e-200,
    # where no grid looks; a grid sample once reported 1.0, unflagged
    out = str(tmp_path)
    assert main(["homogeneous", "--m", "2", "--c", "1e-400*(1+s)", "--n", "3",
                 "--out", out]) == 0
    results = _report(out)["results"]
    assert results["hinf"] == pytest.approx(1e200, rel=1e-12)
    assert results["omega0"] == pytest.approx(1e-200, rel=1e-12)
    assert results["growth_flagged"] is True


@pytest.mark.parametrize("command", ["homogeneous", "middleton"])
@pytest.mark.parametrize("m, c, value", [
    # T = c(1+s)/(s^2+cs+c) has T'(0) = 0 and no right-half-plane zero;
    # adaptive Simpson once ran past 20 s on the first and 60 s on 1e-400
    (2, "1e-300*(1+s)", 0.0),
    (2, "1e-400*(1+s)", 0.0),
    # quadrature read 1.24e7 here
    (2, "1e-12*(1+s)", 0.0),
    # T = c/(s+c): (pi/2) T'(0) = -(pi/2)/c, which for c = 1e-400 is past
    # double range and written as null
    (1, "1e-200", pytest.approx(-math.pi / 2 * 1e200, rel=1e-15)),
    (1, "1e-400", None),
    # zeros at s = +-j add Re(1/z) = 0, where quadrature met ln 0; Aberth
    # iteration in floats may leave them a hair off the axis
    (2, "(1+s)*(1+s^2)/(1+0.1*s)^3", pytest.approx(0.0, abs=1e-12)),
    # T'(0) = -10, and the double zeros at +-j, one squarefree factor
    # counted twice, add 0; np.roots split each pair: -15.707963267931063
    (1, "0.1*(1+s^2)^2/(1+s)^4", pytest.approx(-5 * math.pi, rel=1e-15)),
])
def test_middleton_closed_form_value(tmp_path, command, m, c, value):
    out = str(tmp_path)
    assert main([command, "--m", str(m), "--c", c, "--out", out]) == 0
    results = json.loads(_read(os.path.join(out, "report.json")),
                         parse_constant=_reject_constant)["results"]
    if command == "homogeneous":
        results = results["middleton"]
    assert results == {"value": value, "truncation_bound": 0.0}


@pytest.mark.parametrize("argv, nulls", [
    # each stage's peak is about 1e300 and their product past double range
    (["pd-random", "--n", "2", "--trials", "2", "--kmin", "1e-300", "--kmax", "1e-300"],
     ("median_peak", "max_peak")),
    # T = (1 + c s)/(s^2 + c s + 1), c = 1e-310, peaks near 1/c at omega = 1
    (["homogeneous", "--m", "2", "--c", "1+1e-310*s", "--n", "2"], ("hinf",)),
], ids=["pd-random", "homogeneous"])
def test_peak_past_double_range_is_null(tmp_path, argv, nulls):
    # the peak overflows to inf, written as null, with no overflow warning
    out = str(tmp_path)
    assert main(argv + ["--out", out]) == 0
    results = json.loads(_read(os.path.join(out, "report.json")),
                         parse_constant=_reject_constant)["results"]
    assert all(results[key] is None for key in nulls)


def test_middleton_command(tmp_path):
    out = str(tmp_path)
    assert main(["middleton", "--m", "1", "--c", "1", "--out", out]) == 0
    rep = _report(out)
    assert abs(rep["results"]["value"] + math.pi / 2) < 1e-3
    assert main(["middleton", "--m", "2", "--c", "-1", "--out", out]) == 1


# ---------------------------------------------------------------- pd-random

def test_pd_random_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    flags = ["pd-random", "--n", "6", "--kmin", "0.5", "--kmax", "2",
             "--trials", "5", "--seed", "42"]
    for out in (a, b):
        assert main(flags + ["--out", out]) == 0
    assert _read(os.path.join(a, "mistune.csv")) == _read(os.path.join(b, "mistune.csv"))
    rep = _report(a)
    assert rep["results"]["scheme"].startswith("philox4x64")
    assert rep["results"]["homogeneous_peak"] > 1


@pytest.mark.parametrize("seed, exit_code", [
    ("-1", 2), (str(2 ** 128), 2), ("0", 0), (str(2 ** 128 - 1), 0),
])
def test_pd_random_seed_range(tmp_path, seed, exit_code):
    # the seed is the 128-bit Philox key: 0 <= seed < 2**128
    argv = ["pd-random", "--n", "1", "--trials", "1", "--seed", seed, "--out", str(tmp_path)]
    assert main(argv) == exit_code


def test_pd_random_pinned_csv(tmp_path):
    # sha256 recorded when the gains came from integer Philox and the stage
    # logs from libm; no numpy routine reaches the file
    assert main(["pd-random", "--n", "5", "--trials", "10", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    assert _sha256(os.path.join(tmp_path, "mistune.csv")) == \
        "d866adc2ba555f747bd0314cecd2962864931ddfde57e45f8dc3d8f5b6c9810e"


def test_pd_random_pinned_csv_at_benchmark_size(tmp_path):
    # the cascade-sweep workload's run, recorded as above
    assert main(["pd-random", "--n", "20", "--trials", "200", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    assert _sha256(os.path.join(tmp_path, "mistune.csv")) == \
        "c1a22ea7272965751b80ed56947aac07d079366061ff7ae0be2cf1fec68c6fe3"


def test_pd_random_baseline_tests_no_loop(tmp_path, call_counts):
    # the homogeneous baseline is the PD cascade with every k = 1, read from
    # its closed form like the trials' stages: exact to 1e-12 at its sample,
    # which is the stage-by-stage route's
    counts = call_counts("internal_stability", "poly_gcd")
    assert main(["pd-random", "--n", "20", "--trials", "3", "--out", str(tmp_path)]) == 0
    assert (counts["internal_stability"], counts["poly_gcd"]) == (0, 0)
    prof = cascade_gain([parse_rational("1+s")] * 20, 2, default_grid())
    w = default_grid()[prof.log_magnitudes.argmax()]
    peak = _report(str(tmp_path))["results"]["homogeneous_peak"]
    assert within_rel(peak, pd_cascade_squared([1] * 20, w), 1e-12)
    assert peak == pytest.approx(prof.peak, rel=1e-12)


@pytest.mark.parametrize("argv, cap", [
    (["verify-lemma"], 10 ** 5),
    (["homogeneous", "--m", "2", "--c", "1+s"], 10 ** 5),
    # one trial, so that the stage-sample cap is not what refuses n + 1
    (["pd-random", "--trials", "1"], 10 ** 4),
    (["sensitivity"], 120),
    # two grid samples: 2 (n+1)^2 <= 5 * 10^6
    (["bode", "--wmin", "1", "--wmax", "10", "--ppd", "1"], 1580),
], ids=["verify-lemma", "homogeneous", "pd-random", "sensitivity", "bode"])
def test_length_cap_is_checked_before_the_command(tmp_path, monkeypatch, argv, cap):
    # the command runs at its cap and is never called past it
    calls = []
    monkeypatch.setattr(cli, "_cmd_" + argv[0].replace("-", "_"),
                        lambda args: calls.append(args.n) or (0, {}, []))
    for n, code in [(cap, 0), (cap + 1, 2)]:
        assert main(argv + ["--n", str(n), "--out", str(tmp_path)]) == code
    assert calls == [cap]


def test_bode_cap_counts_the_grid(tmp_path, monkeypatch):
    # at n = 1 a sample counts 4 rows: 1.25 * 10^6 samples are at the cap,
    # one more is past it, and the command is never called there
    calls = []
    monkeypatch.setattr(cli, "_cmd_bode", lambda args: calls.append(args.ppd) or (0, {}, []))
    for ppd, code in [(1249999, 0), (1250000, 2)]:
        assert main(["bode", "--n", "1", "--wmin", "1", "--wmax", "10", "--ppd", str(ppd),
                     "--out", str(tmp_path)]) == code
    assert calls == [1249999]


def test_pd_random_cap_counts_trials_and_the_window(tmp_path, monkeypatch):
    # gains up to 0.1 keep 32 of the default grid's samples, so 312500 trials
    # of one stage are at the cap and one more is past it; gains up to 2 keep
    # 62, and the same count of trials is past the cap there
    calls = []
    monkeypatch.setattr(cli, "_cmd_pd_random",
                        lambda args: calls.append(args.trials) or (0, {}, []))
    for trials, kmax, code in [(312500, "0.1", 0), (312501, "0.1", 2), (312500, "2", 2)]:
        assert main(["pd-random", "--n", "1", "--trials", str(trials), "--kmin", "0.1",
                     "--kmax", kmax, "--out", str(tmp_path)]) == code
    assert calls == [312500]


def test_pd_random_gains_past_double_resolution(tmp_path):
    # each |T_k| exceeds 1 by under 1e-299, far below double resolution: the
    # peak is 1.0, read inside the window, where the full grid once reported
    # rounding noise, 1.0000000000009, at a sample past sqrt 2
    out = str(tmp_path)
    assert main(["pd-random", "--n", "20", "--trials", "20", "--kmin", "1e150",
                 "--kmax", "1e300", "--out", out]) == 0
    rows = [line.split(",") for line in _read(os.path.join(out, "mistune.csv")).splitlines()[1:]]
    assert len(rows) == 20
    assert all(float(peak) == 1.0 and float(omega) < math.sqrt(2) for _, peak, omega in rows)
    assert _report(out)["results"]["max_peak"] == 1.0


def test_pd_random_seed_changes_output(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    base = ["pd-random", "--n", "6", "--trials", "5"]
    assert main(base + ["--seed", "1", "--out", a]) == 0
    assert main(base + ["--seed", "2", "--out", b]) == 0
    assert _read(os.path.join(a, "mistune.csv")) != _read(os.path.join(b, "mistune.csv"))


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "out of memory: verify-lemma"),
    (MemoryError("Unable to allocate 8.00 GiB"), "out of memory: Unable to allocate 8.00 GiB"),
], ids=["bare", "numpy"])
def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, caplog, exc, message):
    def exhaust(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_verify_lemma", exhaust)
    assert main(["verify-lemma", "--n", "3", "--out", str(tmp_path)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [message]
    assert not (tmp_path / "report.json").exists()


def test_log_env_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("LOG", "debug")
    assert main(["verify-lemma", "--n", "2", "--out", str(tmp_path)]) == 0
