"""Property test: documented in-range flags of the bidirectional commands
exit 0 with a passing verdict and no traceback or RuntimeWarning."""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import assume, given, settings, strategies as st

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
    results = _run(["bode", "--n", str(n), "--wmin", repr(wmin),
                    "--wmax", repr(wmax), "--ppd", str(ppd)])
    assert results["verdict"] is True
