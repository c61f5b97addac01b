from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from ptesolver import (
    Game,
    build_game,
    canonicalize,
    embed_normal_form,
    has_perfect_recall,
    is_canonical,
    naive_solve,
    serialize_game,
    solve,
    validate_game,
)
from ptesolver import game as game_module
from ptesolver.cli import run
from ptesolver.game import _Tree

from conftest import (
    FIXTURES,
    PD_ACTIONS,
    PD_MATRIX,
    PD_PLAYERS,
    actions_taken,
    all_profiles,
    binary_tree_game,
    entangle,
    entangled_chain_game,
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

    def test_empty_cell_is_reported(self, pd_game):
        # solve would otherwise fail reading the empty cell's first member.
        game = pd_game._replace(infosets={**pd_game.infosets, "ghost": ()})
        report = validate_game(game)
        assert [(issue.code, issue.ids) for issue in report.errors] == [("EMPTY_INFOSET", ("ghost",))]

    def test_player_of_an_undeclared_node_is_reported(self, pd_game):
        # solve and naive_solve would otherwise take the outcome for a choice node.
        game = pd_game._replace(player_map={**pd_game.player_map, "C,c": "Row"})
        report = validate_game(game)
        assert [(issue.code, issue.ids) for issue in report.errors] == [("UNKNOWN_NODE", ("C,c",))]

    @pytest.mark.parametrize("solver", [solve, naive_solve], ids=["solve", "naive_solve"])
    def test_solvers_refuse_an_empty_cell(self, pd_game, solver):
        game = pd_game._replace(infosets={**pd_game.infosets, "ghost": ()})
        with pytest.raises(ValueError, match="information set 'ghost' has no members"):
            solver(game)

    @pytest.mark.parametrize("solver", [solve, naive_solve], ids=["solve", "naive_solve"])
    def test_solvers_refuse_the_player_of_an_undeclared_node(self, pd_game, solver):
        game = pd_game._replace(player_map={**pd_game.player_map, "C,c": "Row"})
        with pytest.raises(ValueError, match="'C,c' has a player but is not a declared choice node"):
            solver(game)

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

    def test_every_structural_issue_in_report_order(self):
        # One game breaks every rule but the forest check, which runs only on
        # an otherwise sound game; the report lists its issues rule by rule,
        # each rule's in the order of the map it reads.
        game = Game(
            players=("P", "Q", "P"),
            actions=("L", "R", "L"),
            choice_nodes=("n0", "n1", "n1", "n2", "n3", "x"),
            outcomes=("zL", "zR", "x", "zQ"),
            action_map={"n0": ("L", "R"), "n1": (), "n3": ("L", "M", "L"), "x": ("L",), "ghost": ("L",)},
            player_map={"n0": "P", "n2": "Z", "n3": "Q", "x": "P", "spirit": "P"},
            successor_map={
                ("n0", "L"): "zL",
                ("n0", "R"): "zR",
                ("n3", "L"): "zL",
                ("n3", "M"): "nowhere",
                ("n3", "X"): "zQ",
                ("n3", "Y"): "void",
                ("wraith", "L"): "zQ",
            },
            utility_map={
                ("P", "zL"): Fraction(1),
                ("Q", "zL"): Fraction(2),
                ("P", "zR"): Fraction(3),
                ("Q", "x"): Fraction(4),
                ("R", "zL"): Fraction(5),
                ("P", "zQ"): Fraction(6),
                ("Q", "zQ"): Fraction(7),
                ("P", "gone"): Fraction(8),
            },
            infosets={"empty": (), "c0": ("n0", "phantom"), "c1": ("n3", "x"), "c2": ("n3",), "c3": ("n3",)},
            root="r",
        )
        assert [(i.code, i.message, i.ids) for i in validate_game(game).errors] == [
            ("DUPLICATE_ID", "duplicate node or outcome identifier", ()),
            ("DUPLICATE_ID", "identifier used for both a node and an outcome", ("x",)),
            ("DUPLICATE_PLAYER", "duplicate player identifier", ()),
            ("DUPLICATE_ACTION", "duplicate action identifier", ()),
            ("UNKNOWN_ROOT", "root 'r' is not a declared node or outcome", ("r",)),
            ("NO_ACTIONS", "choice node 'n1' offers no actions", ("n1",)),
            ("MISSING_PLAYER", "node 'n1' has no player", ("n1",)),
            ("NO_ACTIONS", "choice node 'n1' offers no actions", ("n1",)),
            ("MISSING_PLAYER", "node 'n1' has no player", ("n1",)),
            ("MISSING_ACTIONS", "node 'n2' has no action set", ("n2",)),
            ("UNKNOWN_PLAYER", "node 'n2' names unknown player 'Z'", ("n2",)),
            ("UNKNOWN_ACTION", "node 'n3' offers undeclared action 'M'", ("n3", "M")),
            ("DUPLICATE_ACTION", "node 'n3' lists an action twice", ("n3",)),
            ("UNKNOWN_NODE", "action set declared for unknown node 'ghost'", ("ghost",)),
            ("UNKNOWN_NODE", "player declared for unknown node 'spirit'", ("spirit",)),
            ("DUPLICATE_SUCCESSOR", "'zL' is the successor of both ('n0', 'L') and ('n3', 'L')", ("zL",)),
            ("UNKNOWN_TARGET", "successor of ('n3', 'M') is unknown: 'nowhere'", ("n3", "M", "nowhere")),
            ("MOVE_NOT_AVAILABLE", "successor at 'n3' uses unavailable action 'X'", ("n3", "X")),
            ("MOVE_NOT_AVAILABLE", "successor at 'n3' uses unavailable action 'Y'", ("n3", "Y")),
            ("UNKNOWN_TARGET", "successor of ('n3', 'Y') is unknown: 'void'", ("n3", "Y", "void")),
            ("UNKNOWN_NODE", "successor declared at unknown node 'wraith'", ("wraith",)),
            ("MISSING_SUCCESSOR", "no successor for action 'L' at node 'x'", ("x", "L")),
            ("EMPTY_INFOSET", "information set 'empty' has no nodes", ("empty",)),
            ("UNKNOWN_NODE", "information set 'c0' lists unknown node 'phantom'", ("c0", "phantom")),
            ("INFOSET_PLAYER_MIX", "information set 'c1' mixes players", ("c1",)),
            ("INFOSET_ACTION_MIX", "information set 'c1' mixes action sets", ("c1",)),
            ("PARTITION_OVERLAP", "node 'n3' is in cells 'c1' and 'c2'", ("n3",)),
            ("PARTITION_OVERLAP", "node 'n3' is in cells 'c2' and 'c3'", ("n3",)),
            ("PARTITION_MISSING", "node 'n1' is in no information set", ("n1",)),
            ("PARTITION_MISSING", "node 'n1' is in no information set", ("n1",)),
            ("PARTITION_MISSING", "node 'n2' is in no information set", ("n2",)),
            ("MISSING_UTILITY", "no payoff for player 'P' at outcome 'x'", ("P", "x")),
            ("MISSING_UTILITY", "no payoff for player 'Q' at outcome 'zR'", ("Q", "zR")),
            ("MISSING_UTILITY", "no payoff for player 'P' at outcome 'x'", ("P", "x")),
            ("UNKNOWN_UTILITY_KEY", "payoff declared for unknown ('R', 'zL')", ("R", "zL")),
            ("UNKNOWN_UTILITY_KEY", "payoff declared for unknown ('P', 'gone')", ("P", "gone")),
        ]

    @pytest.mark.parametrize(
        "root, edges, outcomes, expected",
        [
            # n1 is declared the root but hangs below n0, and zX has no parent.
            (
                "n1",
                {"n0": ("n1", "zR"), "n1": ("n2", "zL"), "n2": ("zA", "zB")},
                ("zA", "zB", "zL", "zR", "zX"),
                ("the tree must have exactly one root, the declared one", ("n0", "n1", "zX")),
            ),
            # n1 and n2 are each other's children: only the root has no parent.
            (
                "n0",
                {"n0": ("zL", "zR"), "n1": ("n2", "zA"), "n2": ("n1", "zB")},
                ("zA", "zB", "zL", "zR"),
                ("nodes or outcomes unreachable from the root", ("n1", "n2", "zA", "zB")),
            ),
        ],
        ids=["two-roots", "cycle"],
    )
    def test_forest_issues(self, root, edges, outcomes, expected):
        # The forest check runs only on an otherwise sound game, so each case has its own.
        game = one_shot_game(
            choice_nodes=tuple(edges),
            outcomes=outcomes,
            action_map={node: ("L", "R") for node in edges},
            player_map={node: "P" for node in edges},
            successor_map={(node, a): child for node, pair in edges.items() for a, child in zip("LR", pair)},
            utility_map={("P", z): Fraction(i) for i, z in enumerate(outcomes)},
            infosets={f"i{node}": (node,) for node in edges},
            root=root,
        )
        assert [(i.code, i.message, i.ids) for i in validate_game(game).errors] == [("FOREST", *expected)]


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
        report = validate_game(pd_game._replace(root="nope"))
        assert [(issue.code, issue.ids) for issue in report.errors] == [("UNKNOWN_ROOT", ("nope",))]
        assert not report.is_canonical and not report.has_perfect_recall

    def test_reflexivity(self):
        # Each element's preorder interval starts at itself and holds exactly its subtree.
        for seed in range(20):
            game = entangle(random_tree_game(seed), seed)
            tree = _Tree(game)
            paths = root_paths(game)
            assert tree.order[0] == game.root and tree.revisited is None
            for element in game.choice_nodes + game.outcomes:
                i = tree.pos[element]
                assert tree.order[i] == element
                assert set(tree.order[i : tree.end[i]]) == subtree(game, element)
                if element != game.root:
                    assert tree.parent[element] == paths[element][-1]

    @pytest.mark.parametrize(
        "root, edges",
        [
            # zA is below both n1 and n2, and n3 shares n0's cell below it.
            ("n0", {"n0": ("n1", "n2"), "n1": ("zA", "zB"), "n2": ("n3", "zA"), "n3": ("zC", "zD")}),
            # n2's L edge leads back to the root.
            ("n0", {"n0": ("n1", "zA"), "n1": ("zB", "n2"), "n2": ("n0", "n3"), "n3": ("zC", "zD")}),
            # n1 offers R but has no successor under it.
            ("n0", {"n0": ("n1", "n3"), "n1": ("zA", None), "n3": ("zC", "zD")}),
            ("nowhere", {"n0": ("zA", "zB")}),
        ],
        ids=["reached-twice", "cycle-to-root", "missing-successor", "unknown-root"],
    )
    def test_index_of_a_successor_map_that_is_not_a_tree(self, root, edges):
        game = one_shot_game(
            choice_nodes=tuple(edges),
            outcomes=("zA", "zB", "zC", "zD"),
            action_map={node: ("L", "R") for node in edges},
            player_map={node: "P" for node in edges},
            successor_map={
                (node, a): child for node, pair in edges.items() for a, child in zip("LR", pair) if child is not None
            },
            utility_map={},
            infosets={"i0": tuple(n for n in ("n3", "n0") if n in edges), "i1": tuple(n for n in ("n1", "n2") if n in edges)},
            root=root,
        )
        order: list[str] = []
        pos: dict[str, int] = {}
        end: dict[int, int] = {}
        up: list[int] = []
        parent: dict[str, tuple[str, str]] = {}
        revisited: list[str] = []

        def visit(element: str, edge: tuple[str, str] | None, above: int) -> None:
            if element in pos:
                revisited.append(element)
                return
            here = pos[element] = len(order)
            order.append(element)
            up.append(above)
            if edge is not None:
                parent[element] = edge
            for action in game.action_map.get(element, ()):
                if (element, action) in game.successor_map:
                    visit(game.successor_map[element, action], (element, action), here)
            end[here] = len(order)

        visit(game.root, None, -1)
        violation = None
        for here, node in enumerate(order):
            cells = [(label, members) for label, members in game.infosets.items() if node in members]
            below = [(label, m) for label, members in cells for m in members if here < pos.get(m, -1) < end[here]]
            if below:
                violation = (below[0][0], node, below[0][1])
                break

        tree = _Tree(game)
        assert tree.order == order and tree.pos == pos and tree.up == up and tree.parent == parent
        assert tree.end == [end[i] for i in range(len(order))]
        assert tree.revisited == (revisited[0] if revisited else None)
        assert tree.violation == violation

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
        parent_edge = current._tree.parent[node]
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
        games += [entangled_chain_game(300, 1)]
        rewritten = 0
        for game in games:
            pruned, reference = canonicalize(game), subtree_set_canonicalize(game)
            assert pruned == reference and serialize_game(pruned) == serialize_game(reference)
            rewritten += pruned is not game
        assert rewritten > 150

    def test_one_index_per_canonicalize(self, monkeypatch):
        game = binary_tree_game(10, 1, entangled=True)
        made = []

        def counted(tree_self, *args):
            made.append(tree_self)
            real_init(tree_self, *args)

        real_init = _Tree.__init__
        monkeypatch.setattr(_Tree, "__init__", counted)
        pruned = canonicalize(game)
        assert len(made) == 1 and made[0] is game._tree
        assert len(pruned.choice_nodes) < len(game.choice_nodes) and "_tree" not in vars(pruned)

    def test_a_deep_chain_is_pruned_without_recursion(self):
        game = entangled_chain_game(4000, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            pruned = canonicalize(game)
            assert is_canonical(pruned) and canonicalize(pruned) is pruned
        finally:
            sys.setrecursionlimit(limit)
        dropped = [node for i, node in enumerate(game.choice_nodes) if i % 10 == 9]
        assert len(pruned.choice_nodes) == 3600
        assert set(pruned.choice_nodes) == set(game.choice_nodes) - set(dropped)
        parent_edge = {child: edge for edge, child in game.successor_map.items()}
        for node in dropped:
            assert pruned.successor_map[parent_edge[node]] == game.successor_map[(node, "L")]
            assert game.successor_map[(node, "R")] not in pruned.outcomes

    def test_a_successor_map_that_is_not_a_tree_is_refused(self):
        joined = chain_game()._replace(successor_map={**chain_game().successor_map, ("n1", "R"): "zLL"})
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
    """The tree index (walk, canonical check, tie flag) is built once per Game object and kept with it."""

    @pytest.mark.parametrize("argv", [["solve"], ["solve", "--quiet"], ["export-dot"], ["validate"]])
    def test_a_command_walks_and_checks_once(self, argv, monkeypatch, capsys):
        calls = {"tree": 0, "check": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        monkeypatch.setattr(game_module, "_Tree", counted("tree", game_module._Tree))
        monkeypatch.setattr(game_module, "_canonical_violation", counted("check", game_module._canonical_violation))
        assert run([*argv, str(FIXTURES / "prisoners_dilemma.json")]) == 0
        assert calls == {"tree": 1, "check": 1}

    def test_solve_reads_the_index_validation_made(self, pd_game, monkeypatch):
        validate_game(pd_game)
        monkeypatch.setattr(game_module, "_Tree", None)  # a second index would fail
        assert solve(pd_game).fixpoint == frozenset({"C,c"})
        assert validate_game(pd_game).has_ties is False and is_canonical(pd_game) and has_perfect_recall(pd_game)

    def test_a_replaced_game_has_its_own_index(self, pd_game):
        assert not validate_game(pd_game).has_ties and is_canonical(pd_game)
        tied = pd_game._replace(utility_map={**pd_game.utility_map, ("Row", "C,c"): Fraction(5)})
        assert validate_game(tied).has_ties and not validate_game(pd_game).has_ties
        for seed in range(40):
            game = random_tree_game(seed)
            assert is_canonical(game)
            merged = game._replace(infosets=entangle(game, seed).infosets)
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
            fresh = _Tree(pruned)
            for name in ("order", "pos", "end", "parent", "revisited", "violation"):
                assert getattr(pruned._tree, name) == getattr(fresh, name)

    def test_the_index_is_not_part_of_the_game(self, pd_game):
        fresh = embed_normal_form(PD_MATRIX, PD_PLAYERS, PD_ACTIONS)
        before = repr(pd_game)
        validate_game(pd_game)
        solve(pd_game)
        assert "_tree" in vars(pd_game) and "_tree" not in vars(fresh)
        assert pd_game == fresh and fresh == pd_game
        assert repr(pd_game) == before == repr(fresh)
        assert "_tree" not in Game._fields
        assert pd_game._replace() == pd_game and "_tree" not in vars(pd_game._replace())
