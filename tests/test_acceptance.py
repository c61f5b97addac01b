"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. All comparisons are exact set equality; runtime budgets are
enforced with a monotonic clock.
"""

from __future__ import annotations

import time
from itertools import product

from ptesolver import (
    EMPTY,
    build_game,
    canonicalize,
    embed_normal_form,
    is_canonical,
    naive_solve,
    parse_game,
    search_empty_pte,
    solve,
    validate_game,
)

from conftest import (
    FIXTURES,
    PD_ACTIONS,
    PD_MATRIX,
    PD_PLAYERS,
    SHAPES,
    GeneratorParams,
    actions_taken,
    all_profiles,
    entangle,
    follow_profile,
    normal_form_maximin,
    pareto_frontier,
    random_game,
    random_matrix,
)
from test_spacetime import HEXA_COMPLETE, HEXA_INCOMPLETE


def _verdict(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_spacetime_fixture_reproduction(hexa_setup):
    start = time.monotonic()
    game = build_game(hexa_setup)
    elapsed = time.monotonic() - start
    ok = set(game.outcomes) == HEXA_COMPLETE and set(game.choice_nodes) == HEXA_INCOMPLETE and elapsed < 1.0
    _verdict(1, f"six-point example yields 14+12 histories exactly ({elapsed:.3f}s)", ok)


def test_criterion_2_successor_keeps_prefix(hexa_setup):
    result = build_game(hexa_setup).successor_map[("1,3,_", "8")]
    _verdict(2, "successor of (1,3,_) under 8 is (1,3,_,8,_,_)", result == "1,3,_,8,_,_")


def test_criterion_3_prisoners_dilemma():
    start = time.monotonic()
    game = embed_normal_form(PD_MATRIX, PD_PLAYERS, PD_ACTIONS)
    result = solve(game)
    elapsed = time.monotonic() - start
    ok = (
        len(result.steps) == 3
        and result.fixpoint == {"C,c"}
        and result.steps[0].preempted == {"C,d", "D,c"}
        and result.steps[1].preempted == {"D,d"}
        and naive_solve(game) == result
        and elapsed < 1.0
    )
    _verdict(3, f"PD: 3 steps to (C,c), eliminations as stated, oracle agrees ({elapsed:.3f}s)", ok)


def test_criterion_4_property_suite():
    start = time.monotonic()
    failures = []
    for seed in range(1000):
        game = random_game(
            GeneratorParams(seed=seed, shape=SHAPES[seed % 4], max_outcomes=20, no_ties=True)
        )
        result = solve(game)
        if len(result.fixpoint) > 1:
            failures.append((seed, "fixpoint larger than singleton"))
        for earlier, later in zip(result.steps, result.steps[1:]):
            if not later.surviving < earlier.surviving:
                failures.append((seed, "surviving set not strictly decreasing"))
            if not earlier.reached <= later.reached:
                failures.append((seed, "reached set not monotone"))
        if len(result.fixpoint) == 1:
            (winner,) = result.fixpoint
            if winner not in pareto_frontier(game):
                failures.append((seed, "fixpoint not Pareto optimal"))
        taken = actions_taken(game)
        for state in result.steps:
            for z in state.preempted:
                for _, cell in state.preempted_by[z]:
                    if state.maximins[cell][1] == taken[z][cell]:
                        failures.append((seed, "witness action equals the outcome's own action"))
        if naive_solve(game) != result:
            failures.append((seed, "solver and oracle diverge"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _verdict(4, f"1000 random no-tie games, all invariants, oracle-equal ({elapsed:.1f}s)", ok)
    assert failures == []


def test_criterion_5_normal_form_specialization():
    failures = []
    for seed in range(200):
        matrix, players, action_lists = random_matrix(seed, max_rows=4, max_cols=4, no_ties=True)
        game = embed_normal_form(matrix, players, action_lists)
        step_zero = solve(game).steps[0]
        irrational = set()
        for profile in product(*action_lists):
            outcome = ",".join(profile)
            for i, player in enumerate(players):
                if matrix[profile][i] < normal_form_maximin(matrix, players, action_lists, player):
                    irrational.add(outcome)
        if step_zero.preempted != irrational:
            failures.append(seed)
    _verdict(5, "step-0 elimination equals individual-rationality violation on 200 matrices", not failures)


def test_criterion_6_perfect_information_specialization():
    failures = []
    for seed in range(200):
        game = random_game(
            GeneratorParams(seed=seed, shape="perfect_info", max_outcomes=20, no_ties=True)
        )
        result = solve(game)
        for state in result.steps:
            live_rich_cells = 0
            for cell in state.reached:
                node = game.infosets[cell][0]
                live_actions = sum(
                    1
                    for action in game.action_map[node]
                    if any(
                        z in state.surviving
                        for z in _subtree_outcomes(game, game.successor_map[(node, action)])
                    )
                )
                if live_actions >= 2:
                    live_rich_cells += 1
            expected = 1 if len(state.surviving) >= 2 else 0
            if live_rich_cells != expected:
                failures.append((seed, state.step, live_rich_cells))
    _verdict(
        6,
        "perfect-information games: one live multi-action reached cell per non-final step",
        not failures,
    )


def _subtree_outcomes(game, element):
    stack = [element]
    found = []
    while stack:
        current = stack.pop()
        if current in game.player_map:
            stack.extend(
                game.successor_map[(current, a)] for a in game.action_map[current]
            )
        else:
            found.append(current)
    return found


def test_criterion_7_nonexistence_witness():
    start = time.monotonic()
    witness = search_empty_pte(3, 3)
    elapsed = time.monotonic() - start
    committed = parse_game((FIXTURES / "empty_pte_witness.json").read_text())
    ok = (
        witness is not None
        and solve(witness).status == EMPTY
        and naive_solve(witness).status == EMPTY
        and not validate_game(witness).has_ties
        and witness == committed
        and elapsed < 300.0
    )
    _verdict(7, f"empty-fixpoint witness found and matches the committed fixture ({elapsed:.1f}s)", ok)


def test_criterion_8_canonicalization_semantics():
    checked = 0
    failures = []
    seed = 0
    while checked < 200 and seed < 2000:
        game = entangle(
            random_game(GeneratorParams(seed=seed, max_depth=3, max_outcomes=10)), seed
        )
        seed += 1
        if len(game.infosets) > 8:
            continue
        checked += 1
        pruned = canonicalize(game)
        if canonicalize(pruned) != pruned or not is_canonical(pruned):
            failures.append((seed, "not idempotent"))
            continue
        for profile in all_profiles(game):
            if follow_profile(game, profile) != follow_profile(pruned, profile):
                failures.append((seed, "profile outcome changed"))
                break
    ok = checked == 200 and not failures
    _verdict(8, f"canonicalize preserves all pure-profile outcomes on {checked} games", ok)
