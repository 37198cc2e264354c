"""Source hygiene: no dead imports in the package or its tests, no domain module
importing another, and a consistent __all__."""

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


def test_all_resolves_and_lists_each_name_once():
    names = platoonctrl.__all__
    assert [n for n in names if names.count(n) > 1] == []
    assert [n for n in names if not hasattr(platoonctrl, n)] == []
