"""Layering guard: the library ships one implementation per stage.

The scalar seed implementations the fast paths are pinned to live in
:mod:`tests.oracles`.  The shipped package must never import them, and
no reference twin may reappear beside the code it specifies.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def _modules():
    return sorted(PACKAGE_ROOT.rglob("*.py"))


def _imported_roots(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield (node.module or "").split(".")[0]


def test_package_modules_found():
    names = {p.relative_to(PACKAGE_ROOT).as_posix() for p in _modules()}
    assert {"__init__.py", "circuits/mapping.py",
            "core/legalizer.py"} <= names


def test_no_module_imports_tests():
    offenders = [p.relative_to(PACKAGE_ROOT).as_posix() for p in _modules()
                 if "tests" in set(_imported_roots(p))]
    assert offenders == []


def test_no_reference_modules_in_package():
    names = {p.relative_to(PACKAGE_ROOT).as_posix() for p in _modules()}
    assert not [n for n in names if n.endswith("_reference.py")]
    assert "circuits/transpile.py" not in names



def _classic_keyword_calls(path: Path):
    """Line numbers of ``PlacerConfig.classic(...)`` calls with keywords."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and node.keywords
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "classic"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "PlacerConfig"):
            yield node.lineno


def test_classic_config_derived_in_one_place():
    """Classic is ``PlacerConfig.classic(config)`` of the design config:
    a module that hand-copies fields into it drifts from the QPlacer
    side as fields are added."""
    offenders = [f"{p.relative_to(PACKAGE_ROOT).as_posix()}:{line}"
                 for p in _modules()
                 if p.relative_to(PACKAGE_ROOT).as_posix()
                 != "core/config.py"
                 for line in _classic_keyword_calls(p)]
    assert offenders == []
