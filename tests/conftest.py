import collections
import importlib
import json

import pytest

from platoonctrl.cli import main
from platoonctrl.synthesis import candidate_controller, search_parameters


@pytest.fixture(scope="session")
def certified_m4():
    """The m=4, eps=0.1 certified design; the scan is the expensive part."""
    cert = search_parameters(4, 0.1)
    return candidate_controller(4, cert.gamma_a, cert.gamma_b), cert


@pytest.fixture(scope="session")
def synth_m3_family(tmp_path_factory):
    """The family.json document that `synth --m 3 --count 3` writes."""
    out = tmp_path_factory.mktemp("synth_m3")
    assert main(["synth", "--m", "3", "--count", "3", "--out", str(out)]) == 0
    with open(out / "family.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def call_counts(monkeypatch):
    """watch(*names) counts calls to those platoonctrl functions.

    The package imports functions by name (``from .ratfun import
    internal_stability``), so each is wrapped in every module that holds it.
    """
    mods = [importlib.import_module(f"platoonctrl.{m}")
            for m in ("poly", "freq", "ratfun", "bidir", "synthesis", "cascade", "cli")]
    counts = collections.Counter()

    def watch(*names):
        for name in names:
            real = next(getattr(m, name) for m in mods if hasattr(m, name))

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            for mod in mods:
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counted)
        return counts

    return watch
