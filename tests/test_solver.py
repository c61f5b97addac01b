from __future__ import annotations

import copy
import pickle
import threading
from fractions import Fraction

import pytest

from ptesolver import (
    EMPTY,
    MULTIPLE_WITH_TIES,
    UNIQUE,
    Game,
    NotCanonicalError,
    build_game,
    embed_normal_form,
    is_canonical,
    solve,
)
from ptesolver.solver import _Index, _maximin, _reached, _step

from conftest import actions_taken, entangle, random_tree_game

PD_OUTCOMES = frozenset({"C,c", "C,d", "D,c", "D,d"})


def one_outcome_game() -> Game:
    return Game(
        players=("P",),
        actions=(),
        choice_nodes=(),
        outcomes=("end",),
        action_map={},
        player_map={},
        successor_map={},
        utility_map={("P", "end"): Fraction(7)},
        infosets={},
        root="end",
    )


def returns_within(seconds: float, call):
    """Run ``call`` in a daemon thread; its result or exception, or fail on a hang."""
    box: list = []

    def run():
        try:
            box.append(call())
        except Exception as exc:
            box.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"no return within {seconds} s"
    return box[0]


def compiled(game: Game, surviving: frozenset[str]):
    """The solver's index of ``game`` and each cell player's live mask of ``surviving``."""
    index = _Index(game)
    return index, index.live(surviving)


def reached_labels(game: Game, surviving: frozenset[str]) -> frozenset[str]:
    index, live = compiled(game, surviving)
    return frozenset(cell.label for cell in _reached(index, live))


class TestReachedInfosets:
    def test_all_outcomes_reach_the_root_cell(self, pd_game):
        assert "Row" in solve(pd_game).steps[0].reached

    def test_pd_reaches_both_cells_at_step_zero(self, pd_game):
        first = solve(pd_game).steps[0]
        assert first.surviving == PD_OUTCOMES
        assert first.reached == {"Row", "Col"}

    def test_singleton_reaches_every_cell_on_its_path(self, hexa_setup):
        game = build_game(hexa_setup)
        reached = reached_labels(game, frozenset({"2,_,5,7,10,12"}))
        assert reached == {"a", "c", "d", "e", "f"}

    def test_partial_survivors_in_hexa_game(self, hexa_setup):
        game = build_game(hexa_setup)
        survivors = frozenset({"1,3,_,8,_,_", "2,_,6,8,_,_"})
        assert reached_labels(game, survivors) == {"a", "d"}


class TestMaximin:
    def test_pd_step_zero_row(self, pd_game):
        assert solve(pd_game).steps[0].maximins["Row"] == (Fraction(1), "D")

    def test_pd_step_one_row(self, pd_game):
        second = solve(pd_game).steps[1]
        assert second.surviving == {"C,c", "D,d"}
        assert second.maximins["Row"] == (Fraction(3), "C")

    def test_single_action_cell(self):
        game = embed_normal_form(
            {("only", "l"): (5, 1), ("only", "r"): (2, 3)},
            ("A", "B"),
            (("only",), ("l", "r")),
        )
        first = solve(game).steps[0]
        assert first.surviving == frozenset(game.outcomes)
        assert first.maximins["A"] == (Fraction(2), "only")

    def test_actions_without_survivors_are_skipped(self, pd_game):
        index, live = compiled(pd_game, frozenset({"D,c", "D,d"}))
        cell = next(cell for cell in index.cells if cell.label == "Row")
        worst, action, _ = _maximin(live, cell)
        assert (cell.ranks.values[worst], action) == (Fraction(1), "D")


class TestPreempted:
    def test_pd_step_zero(self, pd_game):
        first = solve(pd_game).steps[0]
        assert first.surviving == PD_OUTCOMES
        assert first.preempted == {"C,d", "D,c"}

    def test_pd_step_one(self, pd_game):
        second = solve(pd_game).steps[1]
        assert second.surviving == {"C,c", "D,d"}
        assert second.preempted == {"D,d"}

    def test_lone_survivor_is_never_preempted(self, pd_game):
        index, live = compiled(pd_game, frozenset({"D,c"}))
        _, by = _step(index, live, _reached(index, live))
        assert by == {}


class TestSolve:
    def test_pd_full_trace(self, pd_game):
        result = solve(pd_game)
        assert result.status == UNIQUE
        assert result.fixpoint == {"C,c"}
        assert len(result.steps) == 3
        assert result.steps[0].preempted == {"C,d", "D,c"}
        assert result.steps[1].preempted == {"D,d"}
        assert result.steps[2].preempted == frozenset()
        assert not result.has_ties

    def test_one_outcome_game(self):
        result = solve(one_outcome_game())
        assert result.status == UNIQUE
        assert result.fixpoint == {"end"}
        assert len(result.steps) == 1

    def test_non_canonical_input_names_the_cell(self):
        for seed in range(50):
            game = entangle(random_tree_game(seed), seed)
            if game.infosets == random_tree_game(seed).infosets:
                continue
            with pytest.raises(NotCanonicalError, match="information set"):
                solve(game)
            return
        pytest.fail("no entangled game produced")

    def test_cyclic_successor_map_does_not_hang(self):
        # a -> b -> a, and both lead to z: not a tree, but built without validation.
        game = Game(
            players=("P",),
            actions=("x", "y"),
            choice_nodes=("a", "b"),
            outcomes=("z",),
            action_map={"a": ("x", "y"), "b": ("x", "y")},
            player_map={"a": "P", "b": "P"},
            successor_map={("a", "x"): "b", ("a", "y"): "z", ("b", "x"): "a", ("b", "y"): "z"},
            utility_map={("P", "z"): Fraction(1)},
            infosets={"ia": ("a",), "ib": ("b",)},
            root="a",
        )
        assert returns_within(1.0, lambda: is_canonical(game)) is True
        assert isinstance(returns_within(1.0, lambda: solve(game)), ValueError)

    def test_tied_game_still_runs(self):
        matrix = {("a", "x"): (1, 1), ("a", "y"): (1, 1), ("b", "x"): (1, 1), ("b", "y"): (1, 1)}
        game = embed_normal_form(matrix, ("P", "Q"), (("a", "b"), ("x", "y")))
        result = solve(game)
        assert result.has_ties
        assert result.status == MULTIPLE_WITH_TIES
        assert result.fixpoint == frozenset(game.outcomes)

    def test_empty_fixpoint_keeps_last_nonempty_step(self):
        # Each player prefers a different diagonal outcome once the
        # off-diagonal ones are gone, so the last two die together.
        matrix = {
            ("a", "x"): (4, 3),
            ("a", "y"): (1, 2),
            ("b", "x"): (2, 1),
            ("b", "y"): (3, 4),
        }
        game = embed_normal_form(matrix, ("P", "Q"), (("a", "b"), ("x", "y")))
        result = solve(game)
        assert result.status == EMPTY
        assert result.fixpoint == frozenset()
        last = result.steps[-1]
        assert last.surviving == {"a,x", "b,y"}
        assert last.preempted == {"a,x", "b,y"}

    def test_states_are_read_only_and_survive_a_copy(self, pd_game):
        result = solve(pd_game)
        with pytest.raises(AttributeError):
            result.steps[1].step = 0
        assert pickle.loads(pickle.dumps(result)) == copy.deepcopy(result) == result
        assert copy.deepcopy(result).steps[1].surviving == {"C,c", "D,d"}

    def test_hexa_game_unique_equilibrium(self, hexa_setup):
        result = solve(build_game(hexa_setup))
        assert result.status == UNIQUE
        assert result.fixpoint == {"2,_,6,7,10,_"}

    def test_monotonicity_and_termination(self):
        for seed in range(120):
            game = random_tree_game(seed)
            result = solve(game)
            assert len(result.steps) <= max(1, len(game.outcomes))
            for earlier, later in zip(result.steps, result.steps[1:]):
                assert later.surviving < earlier.surviving
                assert earlier.reached <= later.reached
                assert later.surviving == earlier.surviving - earlier.preempted
            assert result.steps[-1].preempted == frozenset() or not result.fixpoint

    def test_preemption_witnesses_avoid_own_action(self):
        for seed in range(120):
            game = random_tree_game(seed)
            result = solve(game)
            taken = actions_taken(game)
            for state in result.steps:
                for z in state.preempted:
                    for _, cell in state.preempted_by[z]:
                        assert state.maximins[cell][1] != taken[z][cell]
