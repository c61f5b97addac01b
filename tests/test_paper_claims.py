"""The paper's structural claims, checked over whole traces.

- Strategic games: ``solve`` on a normal form's embedding is the
  strategic PTE at every step, not only at the first. The reference here
  works on the matrix alone: each step drops the surviving profiles that
  pay some player less than that player's maximin over the surviving
  profiles.
- Dynamic games: a setup whose points are pairwise timelike builds a game
  of perfect information, with singleton cells, perfect recall and one
  live multi-action reached cell per non-final step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptesolver import (
    DecisionPoint,
    TIMELIKE,
    SpacetimeSetup,
    build_game,
    causal_dag,
    embed_normal_form,
    has_perfect_recall,
    separation,
    solve,
    total_order,
    validate_setup,
)
from ptesolver.spacetime import _Triangle

from conftest import random_matrix, root_paths, square_normal_form

Profile = tuple[str, ...]


def strategic_pte(matrix: Mapping[Profile, Sequence[object]], n_players: int):
    """(survivors, maximins, dropped) of every step of the strategic PTE, on the matrix alone."""
    surviving = set(matrix)
    steps = []
    while surviving:
        maximins = []
        for i in range(n_players):
            own = {profile[i] for profile in surviving}
            maximins.append(max(min(matrix[s][i] for s in surviving if s[i] == a) for a in own))
        dropped = {s for s in surviving if any(matrix[s][i] < maximins[i] for i in range(n_players))}
        steps.append((frozenset(surviving), maximins, dropped))
        if not dropped:
            break
        surviving -= dropped
    return steps


def _ids(profiles) -> frozenset[str]:
    return frozenset(",".join(p) for p in profiles)


def check_strategic_steps(matrix: Mapping[Profile, Sequence[object]], players: Sequence[str], game) -> None:
    result = solve(game)
    reference = strategic_pte(matrix, len(players))
    assert len(result.steps) == len(reference)
    for state, (surviving, maximins, dropped) in zip(result.steps, reference):
        assert state.surviving == _ids(surviving), state.step
        assert state.reached == set(players), state.step
        assert {cell: value for cell, (value, _) in state.maximins.items()} == dict(zip(players, maximins))
        assert state.preempted == _ids(dropped), state.step
    assert result.fixpoint == _ids(reference[-1][0] - reference[-1][2])


@pytest.mark.parametrize("no_ties", [True, False])
def test_normal_forms_follow_the_strategic_pte_at_every_step(no_ties):
    for seed in range(300):
        matrix, players, action_lists = random_matrix(seed, max_rows=6, max_cols=6, no_ties=no_ties)
        check_strategic_steps(matrix, players, embed_normal_form(matrix, players, action_lists))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 16, 20, 24])
def test_square_normal_forms_follow_the_strategic_pte_at_every_step(k):
    for seed in range(3):
        game = square_normal_form(k, seed)
        matrix = {tuple(z.split(",")): tuple(game.utility(p, z) for p in game.players) for z in game.outcomes}
        check_strategic_steps(matrix, game.players, game)


@st.composite
def timelike_setups(draw) -> SpacetimeSetup:
    """1-6 pairwise timelike points in 1+1 or 2+1 dimensions, a forced triangle, tie-free utilities.

    Each point is at least one time unit after the previous one and moves
    at most that far in space (L1), so every pair is timelike by the
    triangle inequality, and the points need not share a worldline.
    """
    dimension = draw(st.integers(2, 3))
    agents = ("A", "B", "C")[: draw(st.integers(1, 3))]
    coords = [0] * dimension
    points = []
    for k in range(draw(st.integers(1, 6))):
        if k:
            dt = draw(st.integers(1, 4))
            budget = dt
            for axis in range(dimension - 1):
                step = draw(st.integers(-budget, budget))
                coords[axis] += step
                budget -= abs(step)
            coords[-1] += dt
        width = draw(st.integers(1, 3))
        actions = tuple(f"a{j}" for j in range(width))
        points.append(DecisionPoint(f"p{k}", draw(st.sampled_from(agents)), tuple(map(Fraction, coords)), actions))
    probe = SpacetimeSetup(dimension, agents, ("a0", "a1", "a2"), tuple(points), {}, {})
    # The contingency rule: a point requires an action at each earlier
    # point it follows causally whose own row its row so far meets.
    order, dag = total_order(probe), causal_dag(probe)
    rows: list[list[str | None]] = []
    contingency: dict[str, dict[str, str]] = {}
    for k, point in enumerate(order):
        row: list[str | None] = []
        for l, earlier in enumerate(order[:k]):
            meets = all(a is None or a == row[m] for m, a in enumerate(rows[l]))
            choice = draw(st.sampled_from(earlier.actions)) if point.id in dag[earlier.id] and meets else None
            row.append(choice)
            if choice is not None:
                contingency.setdefault(point.id, {})[earlier.id] = choice
        rows.append(row)
    setup = SpacetimeSetup(dimension, agents, probe.actions, probe.points, contingency, {})
    complete = _Triangle(setup).histories[0]
    ranks = {agent: draw(st.permutations(range(1, len(complete) + 1))) for agent in agents}
    utilities = {h.key(): {agent: Fraction(ranks[agent][i]) for agent in agents} for i, h in enumerate(complete)}
    return SpacetimeSetup(dimension, agents, probe.actions, probe.points, contingency, utilities)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(timelike_setups())
def test_timelike_setups_build_games_of_perfect_information(setup):
    pairs = [(p, q) for i, p in enumerate(setup.points) for q in setup.points[i + 1 :]]
    assert all(separation(p.coords, q.coords, setup.dimension).kind == TIMELIKE for p, q in pairs)
    assert validate_setup(setup).ok
    game = build_game(setup)
    assert all(len(members) == 1 for members in game.infosets.values())
    assert has_perfect_recall(game)
    paths = root_paths(game)
    for state in solve(game).steps:
        live_rich_cells = 0
        for cell in state.reached:
            node = game.infosets[cell][0]
            live = {action for z in state.surviving for n, action in paths[z] if n == node}
            live_rich_cells += len(live) >= 2
        assert live_rich_cells == (1 if len(state.surviving) >= 2 else 0), state.step
