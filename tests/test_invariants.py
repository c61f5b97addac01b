"""Package-wide checks: invariants survive ``python -O``, the runtime is stdlib-only and holds no test
generators, README names every export, exports resolve on first use, a ``pte`` command loads only the
modules it runs, and the bench worker's imports load every traced layer."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ptesolver

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "ptesolver").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}; raise an exception instead"


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules a source file imports, relative imports left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    return {name.split(".")[0] for name in modules}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_the_standard_library(path):
    outside = sorted(_absolute_imports(path) - sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {outside}; the runtime must need only the standard library"


# An AST check, not a sys.modules one: interpreter start-up may already have loaded random.
@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_no_generator_or_test_code(path):
    found = sorted(_absolute_imports(path) & {"random", "conftest", "tests"})
    assert not found, f"{path.name} imports {found}; seeded generators and test helpers live in tests/"


def test_every_export_is_documented():
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in ptesolver.__all__ if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not missing, f"README.md does not name the exports {missing}"


# The package's exports, pinned: adding or dropping one is an API change this list must follow.
EXPORTS = """
    format_exact parse_exact
    Game ValidationIssue ValidationReport canonicalize embed_normal_form game_has_ties has_perfect_recall
    is_canonical validate_game
    EMPTY MULTIPLE_WITH_TIES UNIQUE NotCanonicalError SolveResult SolverState solve
    COLOCATED SPACELIKE TIMELIKE DecisionPoint History Separation SetupError SetupReport SpacetimeSetup
    build_game causal_dag separation spacelike_agent_check total_order validate_setup
    naive_solve normal_form_maximin pareto_frontier search_empty_pte
    ParseError export_dot game_to_jsonable parse_game parse_setup serialize_game serialize_setup
    setup_to_jsonable trace_to_jsonable
""".split()


def test_exports_resolve_on_first_use():
    assert len(set(EXPORTS)) == len(EXPORTS) == 46
    assert sorted(ptesolver.__all__) == sorted(EXPORTS)
    namespace: dict = {}
    exec("from ptesolver import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    for name in EXPORTS:
        value = getattr(ptesolver, name)
        assert namespace[name] is value, name
    assert set(EXPORTS) <= set(dir(ptesolver))
    with pytest.raises(AttributeError, match="no attribute 'descendants'"):
        ptesolver.descendants


COLD_START = """
import sys
sys.argv = ["pte", *sys.argv[1:]]
from ptesolver import cli
try:
    cli.main()
except SystemExit as stop:
    code = stop.code
print("\\n" + repr((code, sorted(name for name in sys.modules if name.startswith("ptesolver.")))))
"""


def _cold_start(*argv: str) -> tuple[str, int, list[str]]:
    """Standard output, exit code and loaded package modules of ``cli.main()`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, *argv], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    output, _, last = done.stdout.rpartition("\n\n")
    code, modules = ast.literal_eval(last)
    return output, code, modules


def test_solve_loads_neither_oracle_nor_spacetime():
    output, code, modules = _cold_start("solve", "--quiet", "tests/fixtures/prisoners_dilemma.json")
    assert (code, json.loads(output)) == (0, {"status": "unique", "equilibrium": "C,c"})
    assert "ptesolver.cli" in modules and "ptesolver.solver" in modules
    assert "ptesolver.oracle" not in modules and "ptesolver.spacetime" not in modules


BENCH_IMPORTS = """
import sys
import ptesolver
from ptesolver import cli, oracle
print(repr(sorted(name for name in sys.modules if name.startswith("ptesolver."))))
"""


def test_bench_worker_imports_load_every_layer():
    """bench/worker.py imports only cli and oracle before its recorder wraps these five layers."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", BENCH_IMPORTS], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    modules = ast.literal_eval(done.stdout)
    for layer in ("cli", "formats", "game", "solver", "spacetime"):
        assert f"ptesolver.{layer}" in modules, layer


def test_spacetime_build_loads_spacetime_but_not_oracle():
    output, code, modules = _cold_start("spacetime-build", "--game-only", "tests/fixtures/spacetime_example.json")
    assert code == 0 and json.loads(output)["players"]
    assert "ptesolver.spacetime" in modules and "ptesolver.oracle" not in modules
