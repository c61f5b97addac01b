from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

import pytest

from ptesolver import (
    EMPTY,
    MULTIPLE_WITH_TIES,
    Game,
    SolveResult,
    SolverState,
    build_game,
    canonicalize,
    embed_normal_form,
    naive_solve,
    search_empty_pte,
    solve,
    validate_game,
)
from ptesolver.oracle import SEARCH_LIMIT

from conftest import (
    PD_ACTIONS,
    PD_MATRIX,
    PD_PLAYERS,
    SHAPES,
    GeneratorParams,
    binary_tree_game,
    normal_form_maximin,
    pareto_frontier,
    random_game,
    random_matrix,
    square_normal_form,
    timelike_chain_setup,
)


class TestParetoFrontier:
    def test_pd(self, pd_game):
        assert pareto_frontier(pd_game) == {"C,c", "C,d", "D,c"}

    def test_single_outcome(self):
        game = embed_normal_form({("x",): (1,)}, ("A",), (("x",),))
        assert pareto_frontier(game) == {"x"}

    def test_all_payoffs_equal(self):
        matrix = {(a, b): (1, 1) for a in ("x", "y") for b in ("u", "v")}
        game = embed_normal_form(matrix, ("A", "B"), (("x", "y"), ("u", "v")))
        assert pareto_frontier(game) == frozenset(game.outcomes)


class TestNormalFormMaximin:
    def test_pd_row(self):
        assert normal_form_maximin(PD_MATRIX, PD_PLAYERS, PD_ACTIONS, "Row") == 1
        assert normal_form_maximin(PD_MATRIX, PD_PLAYERS, PD_ACTIONS, "Col") == 1

    def test_single_player_takes_the_max(self):
        matrix = {("a",): (2,), ("b",): (9,), ("c",): (4,)}
        assert normal_form_maximin(matrix, ("A",), (("a", "b", "c"),), "A") == 9

    def test_constant_matrix(self):
        matrix = {(a, b): (5, 5) for a in ("x", "y") for b in ("u", "v")}
        assert normal_form_maximin(matrix, ("A", "B"), (("x", "y"), ("u", "v")), "A") == 5


class TestNaiveSolve:
    def test_pd_identical_trace(self, pd_game):
        assert naive_solve(pd_game) == solve(pd_game)

    def test_hexa_game(self, hexa_setup):
        game = build_game(hexa_setup)
        assert naive_solve(game) == solve(game)

    def test_five_hundred_random_games(self):
        for seed in range(500):
            params = GeneratorParams(seed=seed, shape=SHAPES[seed % 4], max_outcomes=20)
            game = random_game(params)
            assert naive_solve(game) == solve(game), (seed, params.shape)

    def test_agrees_on_tied_games_too(self):
        # Tied payoffs share a first rank in the solver's rank space.
        for shape in SHAPES:
            for seed in range(200):
                game = random_game(GeneratorParams(seed=seed, shape=shape, no_ties=False, max_outcomes=12))
                assert naive_solve(game) == solve(game), (seed, shape)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: binary_tree_game(8, seed=3),
            lambda: binary_tree_game(10, seed=3),
            lambda: square_normal_form(24, seed=3),
            lambda: canonicalize(binary_tree_game(8, seed=3, entangled=True)),
            lambda: build_game(timelike_chain_setup(160, seed=3)),
        ],
        ids=[
            "perfect-tree-depth-8",
            "perfect-tree-depth-10",
            "normal-form-24x24",
            "canonicalized-depth-8",
            "timelike-chain-160",
        ],
    )
    def test_agrees_at_benchmark_sizes(self, make):
        game = make()
        assert naive_solve(game) == solve(game)

    @pytest.mark.slow
    def test_agrees_on_a_depth_11_tree(self):
        game = binary_tree_game(11, seed=1)
        assert naive_solve(game) == solve(game)

    @pytest.mark.slow
    def test_depth_12_tree_solves_in_seconds(self):
        # 4096 outcomes; the oracle would take minutes, so check the steps chain.
        game = binary_tree_game(12, seed=1)
        start = time.monotonic()
        result = solve(game)
        assert time.monotonic() - start < 4.0
        surviving = frozenset(game.outcomes)
        for state in result.steps:
            assert state.surviving == surviving and state.preempted <= surviving
            surviving -= state.preempted
        assert not result.steps[-1].preempted
        assert result.fixpoint == surviving and len(surviving) <= 1

    @pytest.mark.parametrize("payoff", [-1, 9], ids=["worst", "best"])
    def test_outcome_off_the_tree_reaches_no_cell(self, pd_game, payoff):
        # No path leads to the extra outcome, so it is below no cell: no cell
        # is certain to be crossed and the first step eliminates nothing.
        game = pd_game._replace(
            outcomes=pd_game.outcomes + ("off",),
            utility_map={**pd_game.utility_map, **{(p, "off"): Fraction(payoff) for p in pd_game.players}},
        )
        everything = frozenset(game.outcomes)
        assert solve(game) == SolveResult(
            fixpoint=everything,
            steps=(SolverState(0, everything, frozenset(), {}, frozenset(), {}),),
            has_ties=False,
            status=MULTIPLE_WITH_TIES,
        )

    def test_cell_members_listing_actions_in_different_orders(self):
        # Col's two nodes list l and r in opposite orders; both actions
        # guarantee Col 1, so the tie breaks toward the first member's order.
        outcomes = ("U,l", "U,r", "D,l", "D,r")
        payoffs = {"U,l": (4, 1), "U,r": (3, 2), "D,l": (2, 3), "D,r": (1, 1)}
        game = Game(
            players=("Row", "Col"),
            actions=("U", "D", "l", "r"),
            choice_nodes=("", "U", "D"),
            outcomes=outcomes,
            action_map={"": ("U", "D"), "U": ("l", "r"), "D": ("r", "l")},
            player_map={"": "Row", "U": "Col", "D": "Col"},
            successor_map={
                ("", "U"): "U",
                ("", "D"): "D",
                ("U", "l"): "U,l",
                ("U", "r"): "U,r",
                ("D", "l"): "D,l",
                ("D", "r"): "D,r",
            },
            utility_map={
                (player, z): Fraction(payoffs[z][i]) for z in outcomes for i, player in enumerate(("Row", "Col"))
            },
            infosets={"row": ("",), "col": ("U", "D")},
            root="",
        )
        result = solve(game)
        assert result.steps[0].maximins["col"] == (Fraction(1), "l")
        assert naive_solve(game) == result


class TestRandomGame:
    def test_deterministic_per_seed(self):
        for shape in SHAPES:
            params = GeneratorParams(seed=42, shape=shape)
            assert random_game(params) == random_game(params)

    def test_normal_form_structure(self):
        for seed in range(40):
            game = random_game(GeneratorParams(seed=seed, shape="normal_form", max_players=3))
            assert validate_game(game).errors == ()
            assert len(game.infosets) == len(game.players)
            sizes = 1
            for player in game.players:
                cell = game.infosets[player]
                assert len(cell) == sizes
                sizes *= len(game.action_map[cell[0]])
            assert len(game.outcomes) == sizes

    def test_perfect_info_cells_are_singletons(self):
        for seed in range(40):
            game = random_game(GeneratorParams(seed=seed, shape="perfect_info"))
            assert all(len(members) == 1 for members in game.infosets.values())

    def test_no_ties_is_honored(self):
        for seed in range(60):
            game = random_game(GeneratorParams(seed=seed, no_ties=True))
            assert not validate_game(game).has_ties

    def test_outcome_budget_respected(self):
        for seed in range(60):
            game = random_game(GeneratorParams(seed=seed, max_outcomes=9))
            assert 1 <= len(game.outcomes) <= 9

    def test_bad_params(self):
        with pytest.raises(ValueError):
            random_game(GeneratorParams(seed=1, max_actions=0))
        with pytest.raises(ValueError):
            random_game(GeneratorParams(seed=1, shape="mystery"))


class TestSearchEmptyPte:
    def test_witness_exists_in_two_by_two(self):
        witness = search_empty_pte(2, 2)
        assert witness is not None
        assert not validate_game(witness).has_ties
        assert solve(witness).status == EMPTY
        assert naive_solve(witness).status == EMPTY

    def test_witness_is_reproducible(self):
        first = search_empty_pte(2, 2)
        second = search_empty_pte(2, 2)
        assert first == second

    def test_symmetric_pd_orderings_have_no_witness(self):
        def symmetric_pd(matrix) -> bool:
            rows = sorted({r for r, _ in matrix})
            cols = sorted({c for _, c in matrix})
            if len(rows) != 2 or len(cols) != 2:
                return False
            symmetric = all(
                matrix[(rows[i], cols[j])][0] == matrix[(rows[j], cols[i])][1]
                for i in range(2)
                for j in range(2)
            )
            if not symmetric:
                return False
            for coop, defect in ((0, 1), (1, 0)):
                reward = matrix[(rows[coop], cols[coop])][0]
                sucker = matrix[(rows[coop], cols[defect])][0]
                temptation = matrix[(rows[defect], cols[coop])][0]
                punishment = matrix[(rows[defect], cols[defect])][0]
                if temptation > reward > punishment > sucker:
                    return True
            return False

        assert search_empty_pte(2, 2, accept=symmetric_pd) is None

    def test_one_by_one_space_is_empty(self):
        assert search_empty_pte(1, 1) is None

    def test_bounds_past_the_limit_are_refused(self):
        # Past the limit the guard raises first; without it these bounds find the 2 x 2 witness.
        with pytest.raises(ValueError, match=f"at most {SEARCH_LIMIT} of each"):
            search_empty_pte(SEARCH_LIMIT + 1, 2)
        with pytest.raises(ValueError, match=f"at most {SEARCH_LIMIT} of each"):
            search_empty_pte(2, SEARCH_LIMIT + 1)
        assert search_empty_pte(SEARCH_LIMIT, SEARCH_LIMIT) == search_empty_pte(2, 2)
