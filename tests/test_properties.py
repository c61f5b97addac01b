"""Hypothesis properties of the game layer, the solver's rank sort and the document formats.

Each generated node may join any earlier cell of the same player and
action set, an ancestor's included, so the trees cover canonical and
non-canonical games with and without perfect recall. The preorder-walk
checks are compared with test-local copies of the quadratic checks they
replaced, which re-walk a subtree per node and climb a root path per
cell member. The float-first sort key, the indented writer and the tie
check are compared with what they stand in for: the Fraction order,
``json.dumps(x, indent=2)`` and a set of the payoff Fractions. Game and
setup documents round-trip through their parsers.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptesolver import (
    DecisionPoint,
    Game,
    NotCanonicalError,
    SpacetimeSetup,
    canonicalize,
    game_has_ties,
    has_perfect_recall,
    is_canonical,
    parse_game,
    parse_setup,
    random_setup,
    serialize_game,
    serialize_setup,
    solve,
    validate_game,
    validate_setup,
)
from ptesolver.formats import _indented_json
from ptesolver.solver import _exact_key

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
    assert game._tree.violation == violation
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


def _near(center: int) -> st.SearchStrategy[Fraction]:
    """Values within a few units, and within fractions of a unit, of ``center``."""
    return st.builds(
        lambda offset, tiny, sign: sign * (center + offset + tiny),
        st.integers(-3, 3),
        st.fractions(-1, 1, max_denominator=2**60),
        st.sampled_from([1, -1]),
    )


exact_values = st.one_of(st.fractions(), _near(2**53), _near(10**400), st.integers(-(10**20), 10**20).map(Fraction))


@PROPERTY_SETTINGS
@given(st.lists(exact_values, max_size=30))
def test_exact_key_sorts_as_the_fractions_do(values):
    assert sorted(values, key=_exact_key) == sorted(values)
    for a, b in zip(values, values[1:]):
        assert (_exact_key(a) < _exact_key(b)) == (a < b)
        assert (_exact_key(a) == _exact_key(b)) == (a == b)


json_text = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(["", "\x00\x1f\"\\/", "é\u2028😀"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=25,
)


@PROPERTY_SETTINGS
@given(json_values)
def test_indented_writer_equals_json_dumps(value):
    assert _indented_json(value) == json.dumps(value, indent=2)


@st.composite
def documented_games(draw) -> Game:
    """Entangled games whose cells are listed as a document lists them, with any exact payoffs."""
    game = draw(entangled_games(max_nodes=7))
    cell_of = {node: label for label, members in game.infosets.items() for node in members}
    infosets: dict[str, tuple[str, ...]] = {}
    for node in game.choice_nodes:
        infosets[cell_of[node]] = infosets.get(cell_of[node], ()) + (node,)
    utility_map = {key: draw(exact_values) for key in game.utility_map}
    return replace(game, infosets=infosets, utility_map=utility_map)


@PROPERTY_SETTINGS
@given(documented_games())
def test_game_documents_round_trip(game):
    assert parse_game(serialize_game(game)) == game


def fraction_set_ties(game: Game) -> bool:
    """The tie check as it was: a set of each player's payoff Fractions."""
    for player in game.players:
        seen: set[Fraction] = set()
        for outcome in game.outcomes:
            value = game.utility_map.get((player, outcome))
            if value is None:
                continue
            if value in seen:
                return True
            seen.add(value)
    return False


# Equal values in different spellings, and values that differ only in sign or denominator.
payoff_spellings = st.sampled_from(
    [2, "2", "4/2", "2.0", "0.5", "1/2", "2/4", "-1/2", "-0.5", -2, "1/3", "2/6", 0, "0", "-0", "0/5"]
) | st.fractions(-4, 4, max_denominator=6).map(lambda value: f"{value.numerator}/{value.denominator}")


@PROPERTY_SETTINGS
@given(entangled_games(max_nodes=7), st.data())
def test_tie_check_equals_the_fraction_set_check(game, data):
    doc = json.loads(serialize_game(game))
    for outcome in doc["outcomes"]:
        for player in list(outcome["payoffs"]):
            if data.draw(st.integers(0, 9)) == 0:
                del outcome["payoffs"][player]
            else:
                outcome["payoffs"][player] = data.draw(payoff_spellings)
    parsed = parse_game(json.dumps(doc))
    assert game_has_ties(parsed) == validate_game(parsed).has_ties == fraction_set_ties(parsed)


def fraction_set_setup_ties(setup: SpacetimeSetup) -> bool:
    """The same set check over each agent's payoffs in the utilities entries."""
    for agent in setup.agents:
        seen: set[Fraction] = set()
        for payoffs in setup.utilities.values():
            if agent in payoffs:
                if payoffs[agent] in seen:
                    return True
                seen.add(payoffs[agent])
    return False


@PROPERTY_SETTINGS
@given(st.integers(0, 500), st.data())
def test_setup_tie_check_equals_the_fraction_set_check(seed, data):
    # Every key of a generated setup is a complete history, so the set
    # check over its entries is the check over the histories.
    doc = json.loads(serialize_setup(random_setup(seed)))
    for payoffs in doc["utilities"].values():
        for agent in list(payoffs):
            if data.draw(st.integers(0, 9)) == 0:
                del payoffs[agent]
            else:
                payoffs[agent] = data.draw(payoff_spellings)
    parsed = parse_setup(json.dumps(doc))
    assert validate_setup(parsed).has_ties == fraction_set_setup_ties(parsed)


json_keys = st.text(st.characters(codec="utf-8"), max_size=4)


@st.composite
def setups(draw) -> SpacetimeSetup:
    """Setups as documents hold them: any ids, exact coordinates and payoffs, valid or not."""
    actions = tuple(draw(st.lists(json_keys, max_size=3)))
    points = tuple(
        DecisionPoint(
            id=point_id,
            agent=draw(json_keys),
            coords=tuple(draw(st.lists(exact_values, min_size=1, max_size=3))),
            actions=tuple(draw(st.lists(json_keys, max_size=3))),
        )
        for point_id in draw(st.lists(json_keys, max_size=4, unique=True))
    )
    return SpacetimeSetup(
        dimension=draw(st.integers(-1, 4)),
        agents=tuple(draw(st.lists(json_keys, max_size=3))),
        actions=actions,
        points=points,
        contingency=draw(st.dictionaries(json_keys, st.dictionaries(json_keys, json_keys, max_size=3), max_size=3)),
        utilities=draw(st.dictionaries(json_keys, st.dictionaries(json_keys, exact_values, max_size=3), max_size=3)),
    )


@PROPERTY_SETTINGS
@given(setups())
def test_setup_documents_round_trip(setup):
    assert parse_setup(serialize_setup(setup)) == setup
