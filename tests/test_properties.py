"""Hypothesis properties of the game layer, the solver's rank sort and the document formats.

Each generated node may join any earlier cell of the same player and
action set, an ancestor's included, so the trees cover canonical and
non-canonical games with and without perfect recall. The preorder-walk
checks are compared with test-local copies of the quadratic checks they
replaced, which re-walk a subtree per node and climb a root path per
cell member. The float-first sort key, the indented writer and the tie
check are compared with what they stand in for: the Fraction order,
``json.dumps(x, indent=2)`` and a set of the payoff Fractions. Game and
setup documents round-trip through their parsers, and a spacelike setup
builds its normal-form embedding. The solver's steps equal
``naive_solve``'s, and the streamed trace equals the indented trace
values, whose survivor lists equal each step's own ``surviving`` set.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptesolver import (
    DecisionPoint,
    Game,
    NotCanonicalError,
    SpacetimeSetup,
    build_game,
    canonicalize,
    embed_normal_form,
    game_has_ties,
    has_perfect_recall,
    is_canonical,
    naive_solve,
    parse_game,
    parse_setup,
    serialize_game,
    serialize_setup,
    solve,
    total_order,
    trace_to_jsonable,
    validate_game,
    validate_setup,
)
from ptesolver.exact import format_exact
from ptesolver.formats import _indented_json, _write_trace
from ptesolver.solver import _exact_key

from conftest import FIXTURES, all_profiles, binary_tree_game, follow_profile, random_setup, square_normal_form

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


@st.composite
def spacelike_normal_forms(draw) -> tuple[SpacetimeSetup, dict[tuple[str, ...], tuple[int, ...]]]:
    """2-5 pairwise spacelike points, one agent each, at most 64 profiles, tie-free payoffs.

    Point k sits at x = 10k with t in 0..3, so no two points are in causal
    contact, and the total order (by time first) may reorder the
    declaration. The matrix is keyed by profiles in total order.
    """
    agents = tuple(f"P{k}" for k in range(draw(st.integers(2, 5))))
    action_lists = []
    for _ in agents:
        most = min(3, 64 // math.prod(map(len, action_lists)))
        action_lists.append(tuple(f"a{j}" for j in range(draw(st.integers(1, most)))))
    points = tuple(
        DecisionPoint(agent, agent, (Fraction(10 * k), Fraction(draw(st.integers(0, 3)))), actions)
        for k, (agent, actions) in enumerate(zip(agents, action_lists))
    )
    setup = SpacetimeSetup(
        dimension=2,
        agents=agents,
        actions=tuple(f"a{j}" for j in range(max(map(len, action_lists)))),
        points=points,
        contingency={},
        utilities={},
    )
    ordered = total_order(setup)
    profiles = list(product(*(point.actions for point in ordered)))
    columns = [draw(st.permutations(range(1, len(profiles) + 1))) for _ in agents]
    matrix = {profile: tuple(column[i] for column in columns) for i, profile in enumerate(profiles)}
    utilities = {
        ",".join(profile): {point.agent: Fraction(v) for point, v in zip(ordered, payoffs)}
        for profile, payoffs in matrix.items()
    }
    return replace(setup, utilities=utilities), matrix


@PROPERTY_SETTINGS
@given(spacelike_normal_forms())
def test_spacelike_setup_builds_its_normal_form_embedding(drawn):
    setup, matrix = drawn
    ordered = total_order(setup)
    built = build_game(setup)
    embedded = embed_normal_form(matrix, [p.agent for p in ordered], [p.actions for p in ordered])
    # The build lists choice nodes in preorder and its players as declared,
    # the embedding both level by level in the total order.
    assert sorted(built.choice_nodes) == sorted(embedded.choice_nodes)
    assert sorted(built.players) == sorted(embedded.players)
    assert built == replace(embedded, players=built.players, choice_nodes=built.choice_nodes)
    by_build, by_embedding = solve(built), solve(embedded)
    assert by_build.fixpoint == by_embedding.fixpoint
    assert len(by_build.steps) == len(by_embedding.steps)


def reference_trace(game: Game, result) -> list:
    """The trace values with each step's survivors read off its own ``surviving`` set."""
    steps = []
    for state in result.steps:
        cells = [cell for cell in game.infosets if cell in state.reached]
        steps.append(
            {
                "step": state.step,
                "surviving": [z for z in game.outcomes if z in state.surviving],
                "reached_infosets": cells,
                "maximins": [
                    {
                        "infoset": cell,
                        "player": game.cell_player(cell),
                        "value": format_exact(state.maximins[cell][0]),
                        "action": state.maximins[cell][1],
                    }
                    for cell in cells
                ],
                "preempted": [
                    {"outcome": z, "player": state.preempted_by[z][0][0], "infoset": state.preempted_by[z][0][1]}
                    for z in game.outcomes
                    if z in state.preempted
                ],
            }
        )
    fixpoint = [z for z in game.outcomes if z in result.fixpoint]
    equilibrium = fixpoint[0] if len(fixpoint) == 1 else fixpoint or None
    return steps + [{"status": result.status, "equilibrium": equilibrium}]


def check_trace(game: Game, result) -> None:
    trace = trace_to_jsonable(game, result)
    assert trace == reference_trace(game, result)
    out = io.StringIO()
    _write_trace(out, game, result)
    assert out.getvalue() == _indented_json(trace) + "\n"


def check_solve_and_trace(game: Game) -> None:
    result, oracle = solve(game), naive_solve(game)
    assert result == oracle
    for state, expected in zip(result.steps, oracle.steps, strict=True):
        assert state == expected
        assert state.surviving == expected.surviving
    check_trace(game, result)


def perfect_information(game: Game) -> Game:
    return replace(game, infosets={f"c{i}": (node,) for i, node in enumerate(game.choice_nodes)})


@st.composite
def normal_forms(draw) -> Game:
    rows = tuple(f"r{i}" for i in range(draw(st.integers(1, 4))))
    cols = tuple(f"c{j}" for j in range(draw(st.integers(1, 4))))
    matrix = {(r, c): (draw(st.integers(0, 4)), draw(st.integers(0, 4))) for r in rows for c in cols}
    return embed_normal_form(matrix, ("Row", "Col"), (rows, cols))


seeds = st.integers(0, 10**6)


@PROPERTY_SETTINGS
@given(entangled_games(max_nodes=12).map(perfect_information) | st.builds(binary_tree_game, st.integers(0, 5), seeds))
def test_perfect_trees_stream_the_oracle_trace(game):
    check_solve_and_trace(game)


@PROPERTY_SETTINGS
@given(normal_forms() | st.builds(square_normal_form, st.integers(1, 5), seeds))
def test_normal_forms_stream_the_oracle_trace(game):
    check_solve_and_trace(game)


@PROPERTY_SETTINGS
@given(entangled_games(max_nodes=12).map(canonicalize))
def test_canonicalized_entangled_games_stream_the_oracle_trace(game):
    check_solve_and_trace(game)


def test_empty_fixpoint_streams_the_oracle_trace():
    game = parse_game((FIXTURES / "empty_pte_witness.json").read_text())
    assert solve(game).status == "empty"
    check_solve_and_trace(game)


@PROPERTY_SETTINGS
@given(entangled_games(max_nodes=12).map(canonicalize), st.integers(-1, 4), st.data())
def test_outcome_off_the_tree_streams_its_trace(game, payoff, data):
    # No path leads to "off", so the oracle, which reads root paths, cannot
    # take it; the steps are checked to follow one another instead.
    position = data.draw(st.integers(0, len(game.outcomes)))
    off = replace(
        game,
        outcomes=game.outcomes[:position] + ("off",) + game.outcomes[position:],
        utility_map={**game.utility_map, **{(p, "off"): Fraction(payoff) for p in game.players}},
    )
    result = solve(off)
    surviving = frozenset(off.outcomes)
    for state in result.steps:
        assert state.surviving == surviving and "off" in surviving
        surviving -= state.preempted
    assert result.fixpoint == surviving
    check_trace(off, result)
