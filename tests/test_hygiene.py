"""Source hygiene: no dead imports in the package or its tests, no domain module
importing another, numpy in `cascade` alone, and a consistent __all__."""

from __future__ import annotations

import ast
import pathlib

import pytest

import platoonctrl

_SRC = pathlib.Path(platoonctrl.__file__).parent
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")
_TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
# each builds on poly, ratfun and freq only
_DOMAIN = ("bidir", "cascade", "synthesis")


def _unused_imports(tree: ast.Module):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES + _TESTS,
                         ids=[p.stem for p in _MODULES] + [f"tests/{p.stem}" for p in _TESTS])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_scan_sees_a_dead_name():
    tree = ast.parse("from typing import Tuple, List\nimport math\nx: List[int] = []\n")
    assert _unused_imports(tree) == [(1, "Tuple"), (2, "math")]


def _package_imports(tree: ast.Module):
    """The platoonctrl modules a module imports, relatively or by absolute name."""
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            mod = ".".join(filter(None, ["platoonctrl" if node.level else None, node.module]))
            paths += ([f"{mod}.{alias.name}" for alias in node.names]
                      if mod == "platoonctrl" else [mod])
    return {p.split(".")[1] for p in paths if p.startswith("platoonctrl.")}


@pytest.mark.parametrize("name", _DOMAIN)
def test_no_domain_module_imports_another(name):
    tree = ast.parse((_SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert _package_imports(tree) & set(_DOMAIN) == set()


def test_package_import_scan_sees_each_form():
    tree = ast.parse("from .synthesis import plant\nfrom . import freq\n"
                     "import platoonctrl.bidir\nfrom platoonctrl import cascade\n"
                     "from platoonctrl.poly import Polynomial\nimport numpy\n")
    assert _package_imports(tree) == {"synthesis", "freq", "bidir", "cascade", "poly"}


def _loads_numpy(tree: ast.Module) -> bool:
    """Whether a module imports numpy, by name or through platoonctrl._lazy."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return "numpy" in {n.split(".")[0] for n in names} or "_lazy" in _package_imports(tree)


def test_only_cascade_imports_numpy():
    # middleton's np.roots, on a right-half-plane zero, is the one numpy use;
    # every other layer, pd-random's included, never touches it
    users = {path.stem for path in _MODULES
             if _loads_numpy(ast.parse(path.read_text(encoding="utf-8")))}
    assert users - {"_lazy"} == {"cascade"}


def test_numpy_scan_sees_each_form():
    for text in ("import numpy as np\n", "from numpy.linalg import norm\n",
                 "from ._lazy import np\n", "from platoonctrl import _lazy\n"):
        assert _loads_numpy(ast.parse(text)), text
    assert not _loads_numpy(ast.parse("import math\nfrom .freq import LogGrid\n"))


def _stable_loop_builders(tree: ast.Module):
    """The functions in which a module calls StableLoop(...), None at module level."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "StableLoop":
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_only_the_two_proofs_build_a_stable_loop():
    # a StableLoop spares its denominator's Routh test, so it may only be
    # built where internal stability has just been proven
    builders = {(path.stem, owner) for path in _MODULES
                for owner in _stable_loop_builders(ast.parse(path.read_text(encoding="utf-8")))}
    assert builders == {("ratfun", "internal_stability"), ("synthesis", "youla_closed_loop")}


def test_stable_loop_scan_sees_each_call():
    tree = ast.parse("T = StableLoop(1)\ndef f():\n    return ratfun.StableLoop(2)\n"
                     "def g(x):\n    return isinstance(x, StableLoop)\n")
    assert _stable_loop_builders(tree) == {None, "f"}


def test_all_resolves_and_lists_each_name_once():
    names = platoonctrl.__all__
    assert [n for n in names if names.count(n) > 1] == []
    assert [n for n in names if not hasattr(platoonctrl, n)] == []
