"""Perfectly Transparent Equilibrium toolkit.

Model extensive-form games with imperfect information, build them from
decision points located in Minkowski spacetime, and compute the outcome
surviving iterated preemption-based elimination, with an independent
brute-force oracle for cross-checking.

Importing the package loads none of its modules. Each export listed in
``__all__`` resolves on first use (PEP 562) by importing the module that
defines it, so ``from ptesolver import solve`` loads ``exact``, ``game``
and ``solver`` but not ``spacetime`` or ``oracle``.
"""

import importlib

# Every export, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "exact": "format_exact parse_exact",
        "game": "Game ValidationIssue ValidationReport canonicalize embed_normal_form game_has_ties"
        " has_perfect_recall is_canonical validate_game",
        "solver": "EMPTY MULTIPLE_WITH_TIES UNIQUE NotCanonicalError SolveResult SolverState solve",
        "spacetime": "COLOCATED SPACELIKE TIMELIKE DecisionPoint History Separation SetupError SetupReport"
        " SpacetimeSetup build_game causal_dag separation spacelike_agent_check total_order validate_setup",
        "oracle": "naive_solve normal_form_maximin pareto_frontier search_empty_pte",
        "formats": "ParseError export_dot game_to_jsonable parse_game parse_setup serialize_game"
        " serialize_setup setup_to_jsonable trace_to_jsonable",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
