"""Layering guard: the library ships one implementation per stage.

The scalar seed implementations the fast paths are pinned to live in
:mod:`tests.oracles`.  The shipped package must never import them, and
no reference twin may reappear beside the code it specifies.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
TESTS_ROOT = Path(__file__).resolve().parent


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


def _docstrings(tree: ast.AST):
    """Ids of the docstring constants of ``tree``'s module, classes and
    functions (prose, so a word in one does not use an import)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield id(first.value)


def _unused_imports(path: Path):
    """``(line, name)`` of every imported name the module never reads.

    A name read only inside a string (an ``__all__`` entry, a quoted
    annotation) counts as read.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = set(_docstrings(tree))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    """Package modules (``__init__`` re-exports aside) and tests import
    only what they read."""
    paths = [p for p in _modules() if p.name != "__init__.py"]
    paths += sorted(TESTS_ROOT.rglob("*.py"))
    offenders = [f"{p}:{line}: {name}" for p in paths
                 for line, name in _unused_imports(p)]
    assert offenders == []


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


#: ``os`` names that read or write the process environment.
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv",
              "unsetenv"}


def _environment_uses(path: Path):
    """Line numbers where a module reads or writes ``os.environ`` or
    calls ``os.getenv`` (and kin), by attribute or by import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in _ENV_NAMES for alias in node.names)):
            yield node.lineno


def test_only_the_cli_touches_the_environment():
    """Configuration reaches the library as arguments: a cache path or a
    token passed through ``os.environ`` reaches every runner in the
    process, whichever asked for it."""
    offenders = [f"{p.relative_to(PACKAGE_ROOT).as_posix()}:{line}"
                 for p in _modules()
                 if p.relative_to(PACKAGE_ROOT).as_posix() != "cli.py"
                 for line in _environment_uses(p)]
    assert offenders == []
    assert list(_environment_uses(PACKAGE_ROOT / "cli.py"))
