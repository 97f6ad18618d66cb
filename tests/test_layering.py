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

