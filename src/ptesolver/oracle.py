"""Brute-force cross-checks for the solver, as `pte oracle-compare` and `pte search-counterexample` run them.

:func:`naive_solve` recomputes the elimination from first principles,
sharing only the data types with the solver: descendant sets come from
explicit root-to-leaf path enumeration, reach from path intersection,
preemption from a plain triple loop. Equivalence tests against the
solver would be meaningless otherwise. :func:`search_empty_pte` looks
for a tie-free matrix whose fixpoint is empty and confirms it with both.
The tests' own references (the Pareto frontier and the matrix maximin)
live with the tests, in ``tests/conftest.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from itertools import permutations, product

# Unused here: bench/worker.py imports only cli and oracle before Recorder.install wraps all five layers.
from . import spacetime
from .game import Game, embed_normal_form
from .solver import (
    EMPTY,
    MULTIPLE_WITH_TIES,
    UNIQUE,
    NotCanonicalError,
    SolveResult,
    SolverState,
    solve,
)

# The most rows or columns search_empty_pte accepts. Its space grows as
# (r*c)!**2, so even 3 x 3 cannot be exhausted; the bound only keeps the
# list of sizes small before the 2 x 2 witness is found.
SEARCH_LIMIT = 8


def _paths(game: Game) -> dict[str, tuple[tuple[str, str], ...]]:
    """Element -> the (node, action) pairs from the root down to it."""
    paths: dict[str, tuple[tuple[str, str], ...]] = {game.root: ()}
    stack = [game.root]
    while stack:
        element = stack.pop()
        if element not in game.player_map:
            continue
        for action in game.action_map[element]:
            child = game.successor_map[(element, action)]
            paths[child] = paths[element] + ((element, action),)
            stack.append(child)
    return paths


def naive_solve(game: Game) -> SolveResult:
    """Re-derivation of the elimination from explicit path enumeration.

    No descendant sets, no navigation helpers: an outcome is below a cell
    iff its root path crosses a member node, and the action it took there
    is read off the path. Must agree with :func:`ptesolver.solver.solve`
    step for step.
    """
    declared = set(game.choice_nodes)
    for element in game.player_map:
        if element not in declared:
            raise ValueError(f"{element!r} has a player but is not a declared choice node")
    for label, members in game.infosets.items():
        if not members:
            raise ValueError(f"information set {label!r} has no members")
    paths = _paths(game)
    cell_of = {node: label for label, members in game.infosets.items() for node in members}

    for node in game.choice_nodes:
        for ancestor, _ in paths[node]:
            if cell_of[ancestor] == cell_of[node]:
                raise NotCanonicalError(
                    f"information set {cell_of[node]!r} contains node {node!r} and its "
                    f"ancestor {ancestor!r}; canonicalize the game first"
                )

    ties = False
    for player in game.players:
        values = [game.utility(player, z) for z in game.outcomes]
        if len(set(values)) != len(values):
            ties = True

    def action_at(cell: str, z: str) -> str | None:
        for node, action in paths[z]:
            if cell_of[node] == cell:
                return action
        return None

    surviving = frozenset(game.outcomes)
    steps: list[SolverState] = []
    step = 0
    while surviving:
        reached = frozenset(
            cell
            for cell in game.infosets
            if all(action_at(cell, z) is not None for z in surviving)
        )
        maximins: dict[str, tuple[Fraction, str]] = {}
        for cell in game.infosets:
            if cell not in reached:
                continue
            player = game.player_map[game.infosets[cell][0]]
            best = None
            for action in game.action_map[game.infosets[cell][0]]:
                pool = [z for z in surviving if action_at(cell, z) == action]
                if not pool:
                    continue
                worst = min(game.utility(player, z) for z in pool)
                if best is None or worst > best[0]:
                    best = (worst, action)
            if best is None:
                raise RuntimeError(f"no action at {cell!r} leads to a surviving outcome")
            maximins[cell] = best
        witnesses: dict[str, list[tuple[str, str]]] = {}
        for cell in game.infosets:
            if cell not in reached:
                continue
            player = game.player_map[game.infosets[cell][0]]
            value, argmax = maximins[cell]
            for z in surviving:
                if game.utility(player, z) < value:
                    if argmax == action_at(cell, z):
                        raise RuntimeError(
                            f"preemption witness at {cell!r} coincides with the action toward {z!r}"
                        )
                    witnesses.setdefault(z, []).append((player, cell))
        by = {z: tuple(witnesses[z]) for z in game.outcomes if z in witnesses}
        eliminated = frozenset(by)
        steps.append(SolverState(step, surviving, reached, maximins, eliminated, by))
        if not eliminated:
            break
        surviving = surviving - eliminated
        step += 1
    if len(surviving) == 1:
        status = UNIQUE
    elif not surviving:
        status = EMPTY
    else:
        status = MULTIPLE_WITH_TIES
    return SolveResult(fixpoint=surviving, steps=tuple(steps), has_ties=ties, status=status)


def search_empty_pte(
    max_rows: int = 3,
    max_cols: int = 3,
    accept: Callable[[dict[tuple[str, str], tuple[int, int]]], bool] | None = None,
) -> Game | None:
    """First no-tie two-player matrix whose elimination empties out.

    Enumerates matrix sizes smallest first and, within a size, payoff
    permutation pairs in lexicographic order, so the witness is
    reproducible. ``accept`` restricts the search space (e.g. to
    symmetric games). The witness is re-verified with naive_solve before
    being returned; None means the whole space yielded a survivor. Bounds
    past ``SEARCH_LIMIT`` raise ValueError before anything is enumerated.
    """
    if max(max_rows, max_cols) > SEARCH_LIMIT:
        raise ValueError(
            f"search bounds of {max_rows} rows and {max_cols} columns are refused; at most {SEARCH_LIMIT} of each"
        )
    sizes = sorted(
        ((r, c) for r in range(2, max_rows + 1) for c in range(2, max_cols + 1)),
        key=lambda rc: (rc[0] * rc[1], rc),
    )
    for rows, cols in sizes:
        row_actions = tuple(f"r{i}" for i in range(rows))
        col_actions = tuple(f"c{j}" for j in range(cols))
        profiles = list(product(row_actions, col_actions))
        values = range(1, len(profiles) + 1)
        for row_pay in permutations(values):
            for col_pay in permutations(values):
                matrix = {
                    profile: (row_pay[i], col_pay[i]) for i, profile in enumerate(profiles)
                }
                if accept is not None and not accept(matrix):
                    continue
                game = embed_normal_form(matrix, ("Row", "Col"), (row_actions, col_actions))
                if solve(game).status == EMPTY and naive_solve(game).status == EMPTY:
                    return game
    return None
