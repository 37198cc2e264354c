"""No command imports numpy: each runs, and writes the same files, with numpy blocked.

Each check runs in a fresh interpreter, since this test process has long
imported numpy itself.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import platoonctrl

_SRC = str(pathlib.Path(platoonctrl.__file__).parent.parent)

# (argv, exit code)
_EXACT = [
    (["verify-lemma", "--n", "6"], 0),
    (["sensitivity", "--n", "4"], 0),
    # 1 + 0.7 s is minimum phase, so the closed form has no zero sum, and
    # the peak is enclosed in integer arithmetic with no grid
    (["middleton", "--m", "2", "--c", "1+0.7*s"], 0),
    (["homogeneous", "--m", "2", "--c", "1+0.7*s", "--n", "5"], 0),
    # the lemma's closed form in math, on samples built in math
    (["bode", "--n", "3", "--ppd", "2"], 0),
    # every scan and band decision is an integer sign, on samples built in
    # math; family-check reads the family synth wrote
    (["synth", "--m", "3", "--count", "3"], 0),
    (["family-check", "--file", "{out}/5/family.json"], 0),
    # integer Philox and libm stage logs; a refusal by the stage-sample cap,
    # and a usage error, exit 2
    (["pd-random", "--n", "3", "--trials", "2"], 0),
    (["pd-random", "--n", "1", "--trials", "100000000"], 2),
    (["pd-random", "--n", "3", "--kmin", "2", "--kmax", "1"], 2),
]
# a right-half-plane zero, at s = 2: the zero sum comes from the numerator's
# Yun factors and Aberth iteration in complex floats
_RHP_ZERO = [
    (["middleton", "--m", "1", "--c", "(1-0.5*s)/(s+2)"], 0),
    (["homogeneous", "--m", "1", "--c", "(1-0.5*s)/(s+2)", "--n", "3"], 0),
]

_CHILD = """
import json, sys
{first}
from platoonctrl.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({{"codes": codes, "loaded": sys.modules.get("numpy") is not None}}))
"""


def _fresh(argvs, first=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(first=first), json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _files(out: pathlib.Path):
    # every file each command wrote, report.json without its timing section
    # and with artifact and input paths relative to the run's directory
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            doc = json.loads(data)
            doc.pop("timing")
            doc["artifacts"] = [os.path.relpath(a, out) for a in doc["artifacts"]]
            if "file" in doc["parameters"]:
                doc["parameters"]["file"] = os.path.relpath(doc["parameters"]["file"], out)
            data = json.dumps(doc, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return files


def _run(cmds, out: pathlib.Path, first=""):
    argvs = [[a.format(out=out) for a in argv] + ["--out", str(out / str(k))]
             for k, (argv, _) in enumerate(cmds)]
    return _fresh(argvs, first), _files(out)


def _blocked_and_free(cmds, out: pathlib.Path):
    # a None entry in sys.modules makes `import numpy` raise ImportError
    blocked, blocked_files = _run(cmds, out / "blocked", first='sys.modules["numpy"] = None')
    free, free_files = _run(cmds, out / "free")
    assert blocked == free == {"codes": [code for _, code in cmds], "loaded": False}
    assert blocked_files == free_files
    return blocked_files


def test_exact_commands_never_load_numpy(tmp_path):
    assert len(_blocked_and_free(_EXACT, tmp_path)) == 14


def test_a_right_half_plane_zero_runs_with_numpy_blocked(tmp_path):
    files = _blocked_and_free(_RHP_ZERO, tmp_path)
    assert sorted(files) == ["0/report.json", "1/growth.csv", "1/report.json"]
