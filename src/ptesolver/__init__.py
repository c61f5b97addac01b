"""Perfectly Transparent Equilibrium toolkit.

Model extensive-form games with imperfect information, build them from
decision points located in Minkowski spacetime, and compute the outcome
surviving iterated preemption-based elimination, with an independent
brute-force oracle for cross-checking.
"""

from .exact import format_exact, parse_exact
from .game import (
    Game,
    ValidationIssue,
    ValidationReport,
    canonicalize,
    embed_normal_form,
    game_has_ties,
    has_perfect_recall,
    is_canonical,
    validate_game,
)
from .solver import (
    EMPTY,
    MULTIPLE_WITH_TIES,
    UNIQUE,
    NotCanonicalError,
    SolveResult,
    SolverState,
    solve,
)
from .spacetime import (
    COLOCATED,
    SPACELIKE,
    TIMELIKE,
    DecisionPoint,
    History,
    Separation,
    SetupError,
    SetupReport,
    SpacetimeSetup,
    build_game,
    causal_dag,
    separation,
    spacelike_agent_check,
    total_order,
    validate_setup,
)
from .oracle import (
    GeneratorParams,
    naive_solve,
    normal_form_maximin,
    pareto_frontier,
    random_game,
    random_matrix,
    random_setup,
    search_empty_pte,
)
from .formats import (
    ParseError,
    export_dot,
    game_to_jsonable,
    parse_game,
    parse_setup,
    serialize_game,
    serialize_setup,
    setup_to_jsonable,
    trace_to_jsonable,
)

__version__ = "0.1.0"
