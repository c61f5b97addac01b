from __future__ import annotations

from dataclasses import fields, replace
from fractions import Fraction

import pytest

from ptesolver import (
    Game,
    build_game,
    canonicalize,
    embed_normal_form,
    game_has_ties,
    has_perfect_recall,
    is_canonical,
    serialize_game,
    solve,
    validate_game,
)
from ptesolver import game as game_module
from ptesolver.cli import run
from ptesolver.game import _walk

from conftest import (
    FIXTURES,
    PD_ACTIONS,
    PD_MATRIX,
    PD_PLAYERS,
    actions_taken,
    all_profiles,
    binary_tree_game,
    entangle,
    follow_profile,
    mary_recall_game,
    random_tree_game,
    root_paths,
)


def one_shot_game(**overrides) -> Game:
    """A tiny valid single-decision game, overridable field by field."""
    fields = dict(
        players=("P",),
        actions=("L", "R"),
        choice_nodes=("n0",),
        outcomes=("z0", "z1"),
        action_map={"n0": ("L", "R")},
        player_map={"n0": "P"},
        successor_map={("n0", "L"): "z0", ("n0", "R"): "z1"},
        utility_map={("P", "z0"): Fraction(1), ("P", "z1"): Fraction(2)},
        infosets={"i0": ("n0",)},
        root="n0",
    )
    fields.update(overrides)
    return Game(**fields)


class TestValidate:
    def test_pd_embedding_is_clean(self, pd_game):
        report = validate_game(pd_game)
        assert report.errors == ()
        assert not report.has_ties
        assert report.is_canonical
        assert report.has_perfect_recall

    def test_duplicate_successor(self):
        game = one_shot_game(successor_map={("n0", "L"): "z0", ("n0", "R"): "z0"}, outcomes=("z0",))
        codes = {issue.code for issue in validate_game(game).errors}
        assert "DUPLICATE_SUCCESSOR" in codes

    def test_two_roots_is_a_forest(self):
        game = one_shot_game(
            choice_nodes=("n0", "n1"),
            action_map={"n0": ("L", "R"), "n1": ("L", "R")},
            player_map={"n0": "P", "n1": "P"},
            successor_map={
                ("n0", "L"): "z0",
                ("n0", "R"): "z1",
                ("n1", "L"): "z2",
                ("n1", "R"): "z3",
            },
            outcomes=("z0", "z1", "z2", "z3"),
            utility_map={("P", f"z{i}"): Fraction(i) for i in range(4)},
            infosets={"i0": ("n0",), "i1": ("n1",)},
        )
        codes = {issue.code for issue in validate_game(game).errors}
        assert "FOREST" in codes

    def test_move_not_in_chi(self):
        game = one_shot_game(successor_map={("n0", "L"): "z0", ("n0", "X"): "z1"})
        codes = {issue.code for issue in validate_game(game).errors}
        assert "MOVE_NOT_AVAILABLE" in codes
        assert "MISSING_SUCCESSOR" in codes

    def test_partition_violations(self):
        missing = one_shot_game(infosets={})
        assert "PARTITION_MISSING" in {i.code for i in validate_game(missing).errors}
        doubled = one_shot_game(infosets={"i0": ("n0",), "i1": ("n0",)})
        assert "PARTITION_OVERLAP" in {i.code for i in validate_game(doubled).errors}

    def test_missing_utility(self):
        game = one_shot_game(utility_map={("P", "z0"): Fraction(1)})
        assert "MISSING_UTILITY" in {i.code for i in validate_game(game).errors}

    def test_ties_flag(self):
        tied = one_shot_game(utility_map={("P", "z0"): Fraction(2), ("P", "z1"): Fraction(2)})
        assert validate_game(tied).has_ties

    def test_exact_tie_detection_not_tolerance(self):
        close = one_shot_game(
            utility_map={
                ("P", "z0"): Fraction(1, 10**9),
                ("P", "z1"): Fraction(1, 10**9 + 1),
            }
        )
        assert not validate_game(close).has_ties

    def test_random_games_validate_clean(self):
        for seed in range(60):
            report = validate_game(random_tree_game(seed))
            assert report.errors == ()
            assert report.is_canonical


def subtree(game: Game, start: str) -> set[str]:
    """``start`` and every element whose root path crosses it."""
    return {e for e, path in root_paths(game).items() if e == start or any(n == start for n, _ in path)}


def cell_children(game: Game, cell: str, action: str) -> set[str]:
    """Children of every member of ``cell`` under one shared action."""
    return {game.successor_map[(node, action)] for node in game.infosets[cell]}


class TestNavigation:
    """The tree read off the games' own maps and root paths, and the preorder walk against them."""

    def test_descendants_of_outcome_is_itself(self, pd_game):
        assert subtree(pd_game, "C,c") == {"C,c"}

    def test_descendants_of_root_is_everything(self, pd_game):
        everything = set(pd_game.choice_nodes) | set(pd_game.outcomes)
        assert subtree(pd_game, "") == everything

    def test_descendants_unknown_id(self, pd_game):
        report = validate_game(replace(pd_game, root="nope"))
        assert [(issue.code, issue.ids) for issue in report.errors] == [("UNKNOWN_ROOT", ("nope",))]
        assert not report.is_canonical and not report.has_perfect_recall

    def test_reflexivity(self):
        # Each element's preorder interval starts at itself and holds exactly its subtree.
        for seed in range(20):
            game = entangle(random_tree_game(seed), seed)
            walk = _walk(game)
            paths = root_paths(game)
            assert walk.order[0] == game.root and walk.revisited is None
            for element in game.choice_nodes + game.outcomes:
                i = walk.pos[element]
                assert walk.order[i] == element
                assert set(walk.order[i : walk.end[i]]) == subtree(game, element)
                if element != game.root:
                    assert walk.parent[element] == paths[element][-1]

    def test_descendants_in_hexa_game(self, hexa_setup):
        game = build_game(hexa_setup)
        below = subtree(game, "2,_")
        outcomes_below = {z for z in below if z in game.outcomes}
        assert len(outcomes_below) == 8
        assert all(z.startswith("2") for z in outcomes_below)
        assert below - outcomes_below == {"2,_", "2,_,5", "2,_,6", "2,_,5,7", "2,_,6,7", "2,_,5,7,10"}

    def test_successor(self, pd_game):
        assert pd_game.successor_map[("", "C")] == "C"
        assert pd_game.successor_map[("C", "d")] == "C,d"
        assert ("", "d") not in pd_game.successor_map

    def test_successor_in_hexa_game(self, hexa_setup):
        game = build_game(hexa_setup)
        assert game.successor_map[("1,3,_", "8")] == "1,3,_,8,_,_"

    def test_infoset_successors_singleton(self, pd_game):
        assert cell_children(pd_game, "Row", "C") == {pd_game.successor_map[("", "C")]}

    def test_infoset_successors_two_node_cell(self, pd_game):
        children = cell_children(pd_game, "Col", "c")
        assert children == {"C,c", "D,c"}

    def test_infoset_successors_in_hexa_game(self, hexa_setup):
        # The cell of point d holds all four length-3 nodes, so action 8
        # fans out to four outcomes, among them the two after 1,3 and 1,4.
        game = build_game(hexa_setup)
        children = cell_children(game, "d", "8")
        assert children == {"1,3,_,8,_,_", "1,4,_,8,_,_", "2,_,5,8,_,_", "2,_,6,8,_,_"}
        assert len(children) == len(game.infosets["d"])

    def test_action_toward(self, pd_game):
        paths = root_paths(pd_game)
        assert paths["C,c"][0] == ("", "C")
        assert paths["D,d"][0] == ("", "D")
        assert paths["C"] == (("", "C"),)
        assert paths[""] == ()

    def test_action_toward_from_cell(self, hexa_setup):
        taken = actions_taken(build_game(hexa_setup))
        assert taken["2,_,5,7,10,12"]["f"] == "12"
        assert "f" not in taken["1,3,_,8,_,_"]


def chain_game() -> Game:
    """Single player; n1 is a child of n0 and shares its cell."""
    return Game(
        players=("P",),
        actions=("L", "R"),
        choice_nodes=("n0", "n1"),
        outcomes=("zR", "zLL", "zLR"),
        action_map={"n0": ("L", "R"), "n1": ("L", "R")},
        player_map={"n0": "P", "n1": "P"},
        successor_map={
            ("n0", "L"): "n1",
            ("n0", "R"): "zR",
            ("n1", "L"): "zLL",
            ("n1", "R"): "zLR",
        },
        utility_map={("P", "zR"): Fraction(1), ("P", "zLL"): Fraction(2), ("P", "zLR"): Fraction(3)},
        infosets={"i0": ("n0", "n1")},
        root="n0",
    )


def subtree_set_canonicalize(game: Game) -> Game:
    """The rewrite loop that collected every subtree with its own stack walk."""

    def descendants(current: Game, start: str) -> set[str]:
        seen: set[str] = set()
        stack = [start]
        while stack:
            element = stack.pop()
            if element not in seen:
                seen.add(element)
                stack.extend(current.successor_map[(element, a)] for a in current.action_map.get(element, ()))
        return seen

    current = game
    while current._tree.violation is not None:
        _, ancestor, node = current._tree.violation
        kept_action = next(
            a for a in current.action_map[ancestor] if node in descendants(current, current.successor_map[(ancestor, a)])
        )
        keep = current.successor_map[(node, kept_action)]
        dead = descendants(current, node) - descendants(current, keep)
        parent_edge = current._tree.walk.parent[node]
        current = Game(
            players=current.players,
            actions=current.actions,
            choice_nodes=tuple(n for n in current.choice_nodes if n not in dead),
            outcomes=tuple(z for z in current.outcomes if z not in dead),
            action_map={n: acts for n, acts in current.action_map.items() if n not in dead},
            player_map={n: p for n, p in current.player_map.items() if n not in dead},
            successor_map={
                edge: keep if edge == parent_edge else child
                for edge, child in current.successor_map.items()
                if edge[0] not in dead
            },
            utility_map={(p, z): v for (p, z), v in current.utility_map.items() if z not in dead},
            infosets={
                label: kept
                for label, members in current.infosets.items()
                if (kept := tuple(n for n in members if n not in dead))
            },
            root=current.root,
        )
    return current


class TestCanonicalize:
    def test_already_canonical_is_identity(self, pd_game):
        assert canonicalize(pd_game) == pd_game

    def test_chain_prunes_the_off_action_subtree(self):
        game = chain_game()
        assert not is_canonical(game)
        pruned = canonicalize(game)
        assert is_canonical(pruned)
        assert pruned.choice_nodes == ("n0",)
        assert set(pruned.outcomes) == {"zR", "zLL"}
        assert pruned.successor_map[("n0", "L")] == "zLL"
        assert ("P", "zLR") not in pruned.utility_map

    def test_idempotent_on_random_games(self):
        for seed in range(200):
            game = entangle(random_tree_game(seed), seed)
            once = canonicalize(game)
            assert canonicalize(once) == once
            assert is_canonical(once)

    def test_equals_the_subtree_set_rewrite(self):
        games = [entangle(random_tree_game(seed), seed) for seed in range(200)]
        games += [entangle(random_tree_game(seed, max_depth=6, max_outcomes=40), seed) for seed in range(100)]
        games += [binary_tree_game(10, seed, entangled=True) for seed in (1, 2)]
        rewritten = 0
        for game in games:
            pruned, reference = canonicalize(game), subtree_set_canonicalize(game)
            assert pruned == reference and serialize_game(pruned) == serialize_game(reference)
            rewritten += pruned is not game
        assert rewritten > 150

    def test_a_successor_map_that_is_not_a_tree_is_refused(self):
        joined = replace(chain_game(), successor_map={**chain_game().successor_map, ("n1", "R"): "zLL"})
        with pytest.raises(ValueError, match="'zLL' is reached twice from the root; the game is not a tree"):
            canonicalize(joined)

    def test_profile_semantics_preserved(self):
        checked = 0
        for seed in range(60):
            game = entangle(random_tree_game(seed, max_outcomes=12), seed)
            if len(game.infosets) > 8:
                continue
            pruned = canonicalize(game)
            for profile in all_profiles(game):
                assert follow_profile(game, profile) == follow_profile(pruned, profile)
            checked += 1
        assert checked > 20


class TestPerfectRecall:
    def test_singleton_cells_no_repeats(self, pd_game):
        assert has_perfect_recall(pd_game)

    def test_mary_forgets_her_own_move(self):
        game = mary_recall_game()
        assert is_canonical(game)
        assert not has_perfect_recall(game)

    def test_recall_implies_canonical(self):
        for seed in range(200):
            game = entangle(random_tree_game(seed), seed)
            if has_perfect_recall(game):
                assert is_canonical(game)


class TestEmbedNormalForm:
    def test_pd_shape(self, pd_game):
        assert pd_game.choice_nodes == ("", "C", "D")
        assert pd_game.infosets["Row"] == ("",)
        assert pd_game.infosets["Col"] == ("C", "D")
        assert len(pd_game.outcomes) == 4
        report = validate_game(pd_game)
        assert report.is_canonical and report.has_perfect_recall

    def test_one_by_one(self):
        game = embed_normal_form({("x", "y"): (1, 2)}, ("A", "B"), (("x",), ("y",)))
        assert len(game.outcomes) == 1
        assert len(game.choice_nodes) == 2

    def test_single_player_one_by_n(self):
        game = embed_normal_form(
            {("a",): (1,), ("b",): (2,), ("c",): (3,)}, ("Solo",), (("a", "b", "c"),)
        )
        assert game.choice_nodes == ("",)
        assert len(game.outcomes) == 3

    def test_missing_profile_is_an_error(self):
        with pytest.raises(ValueError, match="missing profile"):
            embed_normal_form({("C", "c"): (1, 1)}, PD_PLAYERS, PD_ACTIONS)

    def test_structural_invariants(self):
        matrix = {
            (r, c, t): (1, 2, 3)
            for r in ("r0", "r1")
            for c in ("c0", "c1", "c2")
            for t in ("t0", "t1")
        }
        game = embed_normal_form(matrix, ("A", "B", "C"), (("r0", "r1"), ("c0", "c1", "c2"), ("t0", "t1")))
        assert len(game.outcomes) == 2 * 3 * 2
        assert len(game.infosets["A"]) == 1
        assert len(game.infosets["B"]) == 2
        assert len(game.infosets["C"]) == 6

    def test_payoffs_are_exact(self):
        matrix = {("x",): ("0.1",), ("y",): ("0.3",)}
        game = embed_normal_form(matrix, ("A",), (("x", "y"),))
        assert game.utility("A", "x") == Fraction(1, 10)
        assert game.utility("A", "y") == Fraction(3, 10)


class TestTreeIndex:
    """The walk, canonical check and tie flag are derived once per Game object and kept with it."""

    @pytest.mark.parametrize("argv", [["solve"], ["solve", "--quiet"], ["export-dot"], ["validate"]])
    def test_a_command_walks_and_checks_once(self, argv, monkeypatch, capsys):
        calls = {"walk": 0, "check": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        monkeypatch.setattr(game_module, "_walk", counted("walk", game_module._walk))
        monkeypatch.setattr(game_module, "_canonical_violation", counted("check", game_module._canonical_violation))
        assert run([*argv, str(FIXTURES / "prisoners_dilemma.json")]) == 0
        assert calls == {"walk": 1, "check": 1}

    def test_solve_reads_the_index_validation_made(self, pd_game, monkeypatch):
        validate_game(pd_game)
        monkeypatch.setattr(game_module, "_walk", None)  # a second walk would fail
        assert solve(pd_game).fixpoint == frozenset({"C,c"})
        assert game_has_ties(pd_game) is False and is_canonical(pd_game) and has_perfect_recall(pd_game)

    def test_a_replaced_game_has_its_own_index(self, pd_game):
        assert not game_has_ties(pd_game) and is_canonical(pd_game)
        tied = replace(pd_game, utility_map={**pd_game.utility_map, ("Row", "C,c"): Fraction(5)})
        assert game_has_ties(tied) and not game_has_ties(pd_game)
        for seed in range(40):
            game = random_tree_game(seed)
            assert is_canonical(game)
            merged = replace(game, infosets=entangle(game, seed).infosets)
            assert is_canonical(merged) == (merged.infosets == game.infosets)
            assert merged._tree is not game._tree and is_canonical(game)

    def test_canonicalize_gives_each_game_its_own_index(self):
        for seed in range(40):
            game = entangle(random_tree_game(seed), seed)
            violation = game._tree.violation
            pruned = canonicalize(game)
            if violation is None:
                assert pruned is game
                continue
            assert pruned._tree is not game._tree and game._tree.violation == violation
            assert pruned._tree.violation is None
            assert pruned._tree.walk == game_module._walk(pruned)

    def test_the_index_is_not_part_of_the_game(self, pd_game):
        fresh = embed_normal_form(PD_MATRIX, PD_PLAYERS, PD_ACTIONS)
        before = repr(pd_game)
        validate_game(pd_game)
        solve(pd_game)
        assert "_tree" in vars(pd_game) and "_tree" not in vars(fresh)
        assert pd_game == fresh and fresh == pd_game
        assert repr(pd_game) == before == repr(fresh)
        assert "_tree" not in {f.name for f in fields(Game)}
        assert replace(pd_game) == pd_game and "_tree" not in vars(replace(pd_game))
