"""Property tests: documented in-range flags of the bidirectional commands
and of synth exit 0 with a passing verdict, and pd-random seeds, mutated
family files and homogeneous/middleton controller expressions get a
documented exit code; never a traceback or RuntimeWarning."""

from __future__ import annotations

import copy
import json
import os
import tempfile

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from platoonctrl.cli import main

_SETTINGS = settings(max_examples=20, deadline=None, database=None)


def _run(argv):
    with tempfile.TemporaryDirectory() as out:
        assert main(argv + ["--out", out]) == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            return json.load(fh)["results"]


@_SETTINGS
@given(n=st.integers(1, 8))
def test_verify_lemma_and_sensitivity_any_n(n):
    assert _run(["verify-lemma", "--n", str(n)])["factorization_exact"] is True
    assert _run(["sensitivity", "--n", str(n)])["entry_count"] == n * n


@_SETTINGS
@given(n=st.integers(1, 4), ppd=st.integers(1, 3),
       exps=st.lists(st.floats(-300, 300), min_size=2, max_size=2, unique=True))
def test_bode_any_range(n, ppd, exps):
    wmin, wmax = sorted(10.0 ** e for e in exps)
    assume(wmin < wmax)
    with tempfile.TemporaryDirectory() as out:
        assert main(["bode", "--n", str(n), "--wmin", repr(wmin), "--wmax", repr(wmax),
                     "--ppd", str(ppd), "--out", out]) == 0
        with open(os.path.join(out, "bode.json"), encoding="utf-8") as fh:
            side = json.load(fh)
    assert side["schema"] == "bode/2" and side["verdict"] is True
    assert side["worst_excess"] <= 1e-9


@_SETTINGS
@given(seed=st.integers(-2 ** 130, 2 ** 130))
def test_pd_random_any_seed(seed):
    # the seed is the 128-bit Philox key: inside the range the run succeeds,
    # outside it is a usage error, never a traceback
    with tempfile.TemporaryDirectory() as out:
        argv = ["pd-random", "--n", "1", "--trials", "1", "--seed", str(seed), "--out", out]
        assert main(argv) == (0 if 0 <= seed < 2 ** 128 else 2)


_DELETE = object()
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.sampled_from(["0", "1", "-1", "1/2", "x"]), max_size=4),
    st.dictionaries(st.sampled_from(["num", "den"]), st.just(["1"])))


@st.composite
def _mutation(draw, doc):
    # one key of the document (top level, certificate or controller) is
    # deleted or replaced by an arbitrary JSON value
    paths = ([(k,) for k in doc] + [("certificate", k) for k in doc["certificate"]]
             + [("controller", k) for k in doc["controller"]])
    path = draw(st.sampled_from(paths))
    return path, draw(st.one_of(st.just(_DELETE), _JSON_VALUES))


@_SETTINGS
@given(data=st.data())
def test_family_check_any_single_key_mutation(synth_m3_family, data):
    doc = copy.deepcopy(synth_m3_family)
    path, value = data.draw(_mutation(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as out:
        fpath = os.path.join(out, "family.json")
        with open(fpath, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["family-check", "--file", fpath, "--out", out]) in (0, 1, 2)


@settings(max_examples=15, deadline=None, database=None)
@given(m=st.integers(1, 4), count=st.integers(1, 25), eps=st.sampled_from(["0.1", "1"]),
       bw_exp=st.floats(-300, 300))
def test_synth_any_documented_input(m, count, eps, bw_exp):
    # m <= 4 keeps the scan at ell = 4; every run succeeds, whatever the
    # range of its gammas, and the family it ships passes family-check
    with tempfile.TemporaryDirectory() as out:
        argv = ["synth", "--m", str(m), "--count", str(count), "--eps", eps,
                "--bw", repr(10.0 ** bw_exp), "--out", out]
        assert main(argv) == 0
        fpath = os.path.join(out, "family.json")
        assert main(["family-check", "--file", fpath, "--out", out]) == 0


@pytest.mark.parametrize("argv", [
    ["--m", "4", "--bw", "1e-300", "--count", "25"],  # the last gamma past 1e355
    ["--m", "1", "--bw", "1e-310", "--count", "3"],   # a subnormal bw: every gamma near 1e310
])
def test_synth_gammas_past_double_range(argv):
    with tempfile.TemporaryDirectory() as out:
        assert main(["synth"] + argv + ["--out", out]) == 0
        fpath = os.path.join(out, "family.json")
        assert main(["family-check", "--file", fpath, "--out", out]) == 0


# controller expressions: small constants and s under + - * / and unary
# minus, with integer powers bounded to |k| <= 3 so degrees stay small
_EXPRESSIONS = st.recursive(
    st.sampled_from(["s", "0", "1", "2", "0.5", "10", "1e-3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
        inner.map(lambda e: f"-{e}")),
    max_leaves=6)


def _reject_constant(token):
    raise ValueError(f"report.json holds the non-JSON token {token}")


@settings(max_examples=25, deadline=None, database=None)
@example(command="homogeneous", m=1, c="1-s")  # an improper T: no finite peak, exit 1
@given(command=st.sampled_from(["homogeneous", "middleton"]), m=st.integers(1, 3),
       c=_EXPRESSIONS)
def test_homogeneous_and_middleton_any_expression(command, m, c):
    with tempfile.TemporaryDirectory() as out:
        code = main([command, "--m", str(m), f"--c={c}", "--out", out])
        assert code in (0, 1, 2)
        if code == 0:
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)
