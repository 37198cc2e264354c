"""Command-line contract: exit codes, artifacts, schemas, determinism."""

from __future__ import annotations

import json
import os

import pytest

from platoonctrl.cli import _write_json, main


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _report(out):
    return json.loads(_read(os.path.join(out, "report.json")))


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


def test_usage_errors():
    assert main(["verify-lemma", "--n", "0"]) == 2
    assert main(["verify-lemma"]) == 2
    assert main(["bode", "--n", "2", "--wmin", "10", "--wmax", "1"]) == 2
    assert main(["pd-random", "--n", "3", "--kmin", "2", "--kmax", "1"]) == 2
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
    assert side["schema"] == "bode/1"
    assert side["verdict"] is True
    lines = _read(os.path.join(out, "bode.csv")).splitlines()
    assert lines[0] == "omega,row,col,abs,abs_db"
    assert len(lines) == 1 + 41 * 4


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
    assert fam["schema"] == "family/2"
    assert fam["count"] == 10 and len(fam["gammas"]) == 10
    assert set(fam["controller"]) == {"num", "den"}
    assert fam["product_check"]["pass"] is True
    assert fam["product_check"]["max_product"] <= 1.1 + 1e-6
    rep = _report(out)
    assert rep["results"]["peak"] <= 1.1
    assert main(["family-check", "--file", os.path.join(out, "family.json"),
                 "--out", out]) == 0
    rep2 = _report(out)
    assert rep2["results"]["product_ok"] is True
    assert rep2["results"]["members_stable"] is True


@pytest.mark.parametrize("count", [13, 25])
def test_synth_m4_long_family(tmp_path, count):
    # members past the 12th have coefficients of thousands of bits; the
    # checks read the base T at scaled frequencies, so the product stays finite
    out = str(tmp_path)
    assert main(["synth", "--m", "4", "--count", str(count), "--out", out]) == 0
    path = os.path.join(out, "family.json")
    for doc in (_report(out)["results"], json.loads(_read(path))["product_check"]):
        assert isinstance(doc["max_product"], float)
        assert doc["max_product"] <= 1.1 + 1e-6
    assert main(["family-check", "--file", path, "--out", out]) == 0


def test_family_check_family1_members_must_be_scaled_copies(tmp_path):
    from platoonctrl.synthesis import family_from_json
    out = str(tmp_path)
    assert main(["synth", "--m", "4", "--count", "3", "--out", out]) == 0
    doc = json.loads(_read(os.path.join(out, "family.json")))
    fam = family_from_json(doc)
    doc["schema"] = "family/1"
    del doc["controller"]
    doc["controllers"] = [fam.member(k).to_json_dict() for k in range(3)]
    path = tmp_path / "family1.json"
    path.write_text(json.dumps(doc))
    assert main(["family-check", "--file", str(path), "--out", out]) == 0
    assert _report(out)["results"]["members_stable"] is True
    doc["controllers"][1] = doc["controllers"][2]
    path.write_text(json.dumps(doc))
    assert main(["family-check", "--file", str(path), "--out", out]) == 2


def test_family_check_reads_long_coefficients(tmp_path):
    # D/D with a 5001-digit D: past Python's default int/str digit cap
    big = "1" + "0" * 5000
    doc = {
        "schema": "family/1", "m": 1, "epsilon": 0.1, "omega_bw": 1.0, "count": 1,
        "gammas": ["1"],
        "controllers": [{"num": [big], "den": [big]}],
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


# ---------------------------------------------------------------- homogeneous / middleton

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


def test_middleton_command(tmp_path):
    import math
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


def test_pd_random_seed_changes_output(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    base = ["pd-random", "--n", "6", "--trials", "5"]
    assert main(base + ["--seed", "1", "--out", a]) == 0
    assert main(base + ["--seed", "2", "--out", b]) == 0
    assert _read(os.path.join(a, "mistune.csv")) != _read(os.path.join(b, "mistune.csv"))


def test_log_env_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("LOG", "debug")
    assert main(["verify-lemma", "--n", "2", "--out", str(tmp_path)]) == 0
