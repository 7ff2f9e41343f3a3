"""Every third-party module the package imports is a runtime dependency,
and every one the tests import is a runtime or test dependency.

An undeclared one fails only where it happens to be missing, and there it
can hide: a strict xfail without ``raises=`` counts an ``ImportError`` as
the expected failure.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_levels(path: Path) -> set[str]:
    """Top-level names of every absolute import in the file, those inside
    functions included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _third_party(files, local: set[str]) -> set[str]:
    imported = set().union(*(_imported_top_levels(p) for p in files))
    return imported - set(sys.stdlib_module_names) - local


def _declared(test_extra: bool) -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    reqs = project["dependencies"]
    if test_extra:
        reqs = reqs + project["optional-dependencies"]["test"]
    return {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower()
            .replace("-", "_") for r in reqs}


def test_package_imports_are_runtime_dependencies():
    third_party = _third_party((ROOT / "src" / "rirkit").rglob("*.py"),
                               {"rirkit"})
    assert "numpy" in third_party
    declared = _declared(test_extra=False)
    assert third_party <= declared, third_party - declared


def test_test_imports_are_declared_dependencies():
    files = list((ROOT / "tests").glob("*.py"))
    third_party = _third_party(files, {"rirkit"} | {p.stem for p in files})
    assert "mpmath" in third_party  # conftest.mp_gain's function-level import
    declared = _declared(test_extra=True)
    assert third_party <= declared, third_party - declared
