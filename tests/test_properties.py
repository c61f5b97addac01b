"""Hypothesis properties of the game layer on generated entangled trees.

Each generated node may join any earlier cell of the same player and
action set, an ancestor's included, so the trees cover canonical and
non-canonical games with and without perfect recall. The preorder-walk
checks are compared with test-local copies of the quadratic checks they
replaced, which re-walk a subtree per node and climb a root path per
cell member.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptesolver import Game, NotCanonicalError, canonicalize, has_perfect_recall, is_canonical, solve, validate_game
from ptesolver.game import _canonical_violation, _walk

from conftest import all_profiles, follow_profile

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def entangled_games(draw, max_nodes: int) -> Game:
    players = ("P1", "P2", "P3")[: draw(st.integers(1, 3))]
    nodes: list[str] = []
    outcomes: list[str] = []
    action_map: dict[str, tuple[str, ...]] = {}
    player_map: dict[str, str] = {}
    successor_map: dict[tuple[str, str], str] = {}
    cells: dict[str, list[str]] = {}

    def grow(depth: int) -> str:
        if len(nodes) >= max_nodes or depth >= 5 or (depth > 0 and draw(st.booleans())):
            outcomes.append(f"z{len(outcomes)}")
            return outcomes[-1]
        node = f"n{len(nodes)}"
        nodes.append(node)
        player_map[node] = draw(st.sampled_from(players))
        action_map[node] = ("a", "b", "c")[: draw(st.integers(1, 3))]
        joinable = [
            label
            for label, members in cells.items()
            if player_map[members[0]] == player_map[node] and action_map[members[0]] == action_map[node]
        ]
        cells.setdefault(draw(st.sampled_from(joinable + [f"c{len(cells)}"])), []).append(node)
        for action in action_map[node]:
            successor_map[(node, action)] = grow(depth + 1)
        return node

    root = grow(0)
    return Game(
        players=players,
        actions=("a", "b", "c"),
        choice_nodes=tuple(draw(st.permutations(nodes))),
        outcomes=tuple(outcomes),
        action_map=action_map,
        player_map=player_map,
        successor_map=successor_map,
        utility_map={(p, z): Fraction(draw(st.integers(0, 3))) for p in players for z in outcomes},
        infosets={label: tuple(draw(st.permutations(members))) for label, members in cells.items()},
        root=root,
    )


def _subtree(game: Game, start: str) -> set[str]:
    seen: set[str] = set()
    stack = [start]
    while stack:
        element = stack.pop()
        seen.add(element)
        stack.extend(game.successor_map[(element, a)] for a in game.action_map.get(element, ()))
    return seen


def quadratic_violation(game: Game) -> tuple[str, str, str] | None:
    """The first same-cell (ancestor, descendant) pair, one subtree walk per node."""
    cell_of = {node: label for label, members in game.infosets.items() for node in members}
    order: list[str] = []
    stack = [game.root]
    while stack:
        element = stack.pop()
        if element in game.player_map:
            order.append(element)
            stack.extend(reversed([game.successor_map[(element, a)] for a in game.action_map[element]]))
    for node in order:
        below = _subtree(game, node)
        for other in game.infosets[cell_of[node]]:
            if other != node and other in below:
                return cell_of[node], node, other
    return None


def quadratic_recall(game: Game) -> bool:
    """Perfect recall from each member's own root path."""
    parents = {child: edge for edge, child in game.successor_map.items()}
    cell_of = {node: label for label, members in game.infosets.items() for node in members}

    def experience(node: str, player: str) -> tuple[tuple[str, str], ...]:
        path = []
        while node in parents:
            node, action = parents[node]
            if game.player_map[node] == player:
                path.append((cell_of[node], action))
        return tuple(reversed(path))

    return all(
        len({experience(node, game.cell_player(label)) for node in members}) == 1
        for label, members in game.infosets.items()
    )


@PROPERTY_SETTINGS
@given(entangled_games(max_nodes=7))
def test_canonicalize_preserves_every_pure_profile_outcome(game):
    pruned = canonicalize(game)
    assert validate_game(pruned).errors == ()
    assert is_canonical(pruned)
    for profile in all_profiles(game):
        assert follow_profile(game, profile) == follow_profile(pruned, profile)


@PROPERTY_SETTINGS
@given(entangled_games(max_nodes=30))
def test_walk_checks_equal_the_quadratic_checks(game):
    violation = quadratic_violation(game)
    assert _canonical_violation(game, _walk(game)) == violation
    assert has_perfect_recall(game) == quadratic_recall(game)
    report = validate_game(game)
    assert report.errors == ()
    assert (report.is_canonical, report.has_perfect_recall) == (violation is None, quadratic_recall(game))
    if violation is not None:
        cell, ancestor, node = violation
        with pytest.raises(NotCanonicalError) as caught:
            solve(game)
        assert str(caught.value) == (
            f"information set {cell!r} contains node {node!r} and its ancestor {ancestor!r}; "
            "canonicalize the game first"
        )
