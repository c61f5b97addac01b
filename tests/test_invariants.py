"""Package-wide source checks: invariants survive ``python -O``, the runtime is stdlib-only, and README names every export."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ptesolver

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "ptesolver").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}; raise an exception instead"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = sorted({name for name in modules if name.split(".")[0] not in sys.stdlib_module_names})
    assert not outside, f"{path.name} imports {outside}; the runtime must need only the standard library"


def test_every_export_is_documented():
    readme = (ROOT / "README.md").read_text()
    exports = [
        name for name, value in vars(ptesolver).items() if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    missing = [name for name in exports if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not missing, f"README.md does not name the exports {missing}"
