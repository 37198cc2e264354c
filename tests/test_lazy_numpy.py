"""numpy loads on first float use: the exact commands never import it.

Each check runs in a fresh interpreter, since this test process has long
imported numpy itself.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import platoonctrl
from platoonctrl._lazy import _lazy, np

_SRC = str(pathlib.Path(platoonctrl.__file__).parent.parent)

_EXACT = [
    ["verify-lemma", "--n", "6"],
    ["sensitivity", "--n", "4"],
    # 1 + 0.7 s is minimum phase, so the closed form needs no np.roots, and
    # the peak is enclosed in integer arithmetic with no grid
    ["middleton", "--m", "2", "--c", "1+0.7*s"],
    ["homogeneous", "--m", "2", "--c", "1+0.7*s", "--n", "5"],
    # the lemma's closed form in math, on samples built in math
    ["bode", "--n", "3", "--ppd", "2"],
]
_FLOAT = [["pd-random", "--n", "3", "--trials", "2"]]

_CHILD = """
import json, sys
{first}
from platoonctrl.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({{"codes": codes, "registered": "numpy" in sys.modules,
                   "loaded": "numpy._core" in sys.modules}}))
"""


def _fresh(argvs, first=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(first=first), json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _files(out: pathlib.Path):
    # every file each command wrote, report.json without its timing section
    # and with artifact paths relative to the run's directory
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            doc = json.loads(data)
            doc.pop("timing")
            doc["artifacts"] = [os.path.relpath(a, out) for a in doc["artifacts"]]
            data = json.dumps(doc, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return files


def _run(cmds, out: pathlib.Path, first=""):
    argvs = [argv + ["--out", str(out / str(k))] for k, argv in enumerate(cmds)]
    return _fresh(argvs, first), _files(out)


def test_importing_the_cli_registers_numpy_without_loading_it():
    state = _fresh([])
    assert state == {"codes": [], "registered": True, "loaded": False}


def test_exact_commands_never_load_numpy(tmp_path):
    lazy, lazy_files = _run(_EXACT, tmp_path / "lazy")
    eager, eager_files = _run(_EXACT, tmp_path / "eager", first="import numpy")
    assert lazy == {"codes": [0] * 5, "registered": True, "loaded": False}
    assert eager["codes"] == [0] * 5 and eager["loaded"]
    assert lazy_files == eager_files and len(lazy_files) == 9


def test_a_float_command_loads_numpy_and_matches_its_eager_run(tmp_path):
    lazy, lazy_files = _run(_FLOAT, tmp_path / "lazy")
    eager, eager_files = _run(_FLOAT, tmp_path / "eager", first="import numpy")
    assert lazy == eager == {"codes": [0], "registered": True, "loaded": True}
    assert lazy_files == eager_files and "0/mistune.csv" in lazy_files


def test_the_lazy_module_is_the_registered_one_and_a_missing_one_still_raises():
    assert _lazy("numpy") is np is sys.modules["numpy"]
    with pytest.raises(ModuleNotFoundError):
        _lazy("platoonctrl_no_such_module")
    assert "platoonctrl_no_such_module" not in sys.modules
