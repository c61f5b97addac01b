from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ptesolver import (
    DecisionPoint,
    Game,
    GeneratorParams,
    SpacetimeSetup,
    embed_normal_form,
    parse_setup,
    random_game,
)

FIXTURES = Path(__file__).parent / "fixtures"

PD_MATRIX = {
    ("C", "c"): (3, 3),
    ("C", "d"): (0, 5),
    ("D", "c"): (5, 0),
    ("D", "d"): (1, 1),
}
PD_PLAYERS = ("Row", "Col")
PD_ACTIONS = (("C", "D"), ("c", "d"))


@pytest.fixture
def pd_game() -> Game:
    return embed_normal_form(PD_MATRIX, PD_PLAYERS, PD_ACTIONS)


@pytest.fixture(scope="session")
def hexa_setup() -> SpacetimeSetup:
    """The six-point example setup, loaded from the committed fixture."""
    return parse_setup((FIXTURES / "spacetime_example.json").read_text())


@pytest.fixture(scope="session")
def chain_setup(hexa_setup: SpacetimeSetup) -> SpacetimeSetup:
    """Same points and triangle, but each agent's points on a timelike chain."""
    chain_coords = {
        "a": (Fraction(0), Fraction(0)),
        "b": (Fraction(0), Fraction(1)),
        "c": (Fraction(0), Fraction(2)),
        "d": (Fraction(100), Fraction(3)),
        "e": (Fraction(100), Fraction(4)),
        "f": (Fraction(50), Fraction(200)),
    }
    points = tuple(
        DecisionPoint(p.id, p.agent, chain_coords[p.id], p.actions) for p in hexa_setup.points
    )
    return SpacetimeSetup(
        dimension=2,
        agents=hexa_setup.agents,
        actions=hexa_setup.actions,
        points=points,
        contingency=hexa_setup.contingency,
        utilities=hexa_setup.utilities,
    )


def mary_recall_game() -> Game:
    """One player picks 5 or 6, then picks 13 or 14 having forgotten which."""
    return Game(
        players=("Mary",),
        actions=("5", "6", "13", "14"),
        choice_nodes=("m0", "m1", "m2"),
        outcomes=("z1", "z2", "z3", "z4"),
        action_map={"m0": ("5", "6"), "m1": ("13", "14"), "m2": ("13", "14")},
        player_map={"m0": "Mary", "m1": "Mary", "m2": "Mary"},
        successor_map={
            ("m0", "5"): "m1",
            ("m0", "6"): "m2",
            ("m1", "13"): "z1",
            ("m1", "14"): "z2",
            ("m2", "13"): "z3",
            ("m2", "14"): "z4",
        },
        utility_map={("Mary", z): Fraction(i + 1) for i, z in enumerate(("z1", "z2", "z3", "z4"))},
        infosets={"first": ("m0",), "later": ("m1", "m2")},
        root="m0",
    )


def entangle(game: Game, seed: int) -> Game:
    """Merge a node into a same-player, same-action ancestor's cell.

    The result is still a valid game but is no longer canonical (and no
    longer has perfect recall) whenever a merge was possible.
    """
    rng = random.Random(seed)
    parents = {child: node for (node, _), child in game.successor_map.items()}

    def ancestors(node: str) -> list[str]:
        chain = []
        current = node
        while current in parents:
            current = parents[current]
            chain.append(current)
        return chain

    cell_of = {n: label for label, members in game.infosets.items() for n in members}
    candidates = []
    for node in game.choice_nodes:
        for ancestor in ancestors(node):
            if ancestor not in game.player_map:
                continue
            if (
                game.player_map[ancestor] == game.player_map[node]
                and game.action_map[ancestor] == game.action_map[node]
                and cell_of[ancestor] != cell_of[node]
            ):
                candidates.append((ancestor, node))
    if not candidates:
        return game
    ancestor, node = rng.choice(candidates)
    target_cell = cell_of[ancestor]
    infosets: dict[str, tuple[str, ...]] = {}
    for label, members in game.infosets.items():
        if label == target_cell:
            infosets[label] = members + (node,)
        else:
            remaining = tuple(n for n in members if n != node)
            if remaining:
                infosets[label] = remaining
    return Game(
        players=game.players,
        actions=game.actions,
        choice_nodes=game.choice_nodes,
        outcomes=game.outcomes,
        action_map=game.action_map,
        player_map=game.player_map,
        successor_map=game.successor_map,
        utility_map=game.utility_map,
        infosets=infosets,
        root=game.root,
    )


def random_tree_game(seed: int, **overrides) -> Game:
    params = dict(seed=seed, shape="general_imperfect", max_players=3, max_depth=4)
    params.update(overrides)
    return random_game(GeneratorParams(**params))


def root_paths(game: Game) -> dict[str, tuple[tuple[str, str], ...]]:
    """Element -> the (node, action) pairs from the root down to it."""
    paths: dict[str, tuple[tuple[str, str], ...]] = {game.root: ()}
    stack = [game.root]
    while stack:
        element = stack.pop()
        for action in game.action_map.get(element, ()):
            child = game.successor_map[(element, action)]
            paths[child] = paths[element] + ((element, action),)
            stack.append(child)
    return paths


def actions_taken(game: Game) -> dict[str, dict[str, str]]:
    """Outcome -> {cell: the action its root path takes at a member of that cell}."""
    cell_of = {n: label for label, members in game.infosets.items() for n in members}
    paths = root_paths(game)
    return {z: {cell_of[node]: action for node, action in paths[z]} for z in game.outcomes}


def follow_profile(game: Game, profile: dict[str, str]) -> str:
    """Outcome reached from the root under one action per cell."""
    cell_of = {n: label for label, members in game.infosets.items() for n in members}
    current = game.root
    while current in game.player_map:
        current = game.successor_map[(current, profile[cell_of[current]])]
    return current


def all_profiles(game: Game):
    """Every pure strategy profile, as {cell: action} dicts."""
    labels = list(game.infosets)
    choices = [game.action_map[game.infosets[label][0]] for label in labels]

    def rec(i: int, acc: dict[str, str]):
        if i == len(labels):
            yield dict(acc)
            return
        for action in choices[i]:
            acc[labels[i]] = action
            yield from rec(i + 1, acc)

    yield from rec(0, {})


# -- exact-size generators, at the benchmark's input sizes ---------------------


def _tie_free_utilities(rng: random.Random, players, outcomes) -> dict[tuple[str, str], Fraction]:
    """Each player ranks the outcomes by a fresh permutation of 1..|Z|."""
    utility_map = {}
    for player in players:
        values = list(range(1, len(outcomes) + 1))
        rng.shuffle(values)
        for z, value in zip(outcomes, values):
            utility_map[(player, z)] = Fraction(value)
    return utility_map


def binary_tree_game(depth: int, seed: int, entangled: bool = False) -> Game:
    """Complete binary tree of choice nodes named by their L/R paths.

    Two players alternate by depth. Cells are singletons, unless
    ``entangled``: then of every pair of sibling nodes at depth >= 2 one,
    chosen at random, joins its grandparent's cell, so the game is not
    canonical.
    """
    rng = random.Random(seed)
    players = ("P1", "P2")
    nodes = [p for d in range(depth) for p in _paths_of_length(d)]
    outcomes = _paths_of_length(depth)
    cell_of = {node: "c" + node for node in nodes}
    if entangled:
        for node in nodes:
            if len(node) >= 2 and node.endswith("L"):
                joining = node[:-1] + rng.choice("LR")
                cell_of[joining] = cell_of[joining[:-2]]
    infosets: dict[str, tuple[str, ...]] = {}
    for node in nodes:
        infosets.setdefault(cell_of[node], ())
        infosets[cell_of[node]] += (node,)
    return Game(
        players=players,
        actions=("L", "R"),
        choice_nodes=tuple(nodes),
        outcomes=tuple(outcomes),
        action_map={node: ("L", "R") for node in nodes},
        player_map={node: players[len(node) % 2] for node in nodes},
        successor_map={(node, a): node + a for node in nodes for a in ("L", "R")},
        utility_map=_tie_free_utilities(rng, players, outcomes),
        infosets=infosets,
        root="",
    )


def _paths_of_length(length: int) -> list[str]:
    paths = [""]
    for _ in range(length):
        paths = [p + a for p in paths for a in ("L", "R")]
    return paths


def square_normal_form(k: int, seed: int) -> Game:
    """A tie-free k x k two-player matrix game."""
    rng = random.Random(seed)
    rows = tuple(f"r{i}" for i in range(k))
    cols = tuple(f"c{j}" for j in range(k))
    profiles = [(r, c) for r in rows for c in cols]
    row_pay = rng.sample(range(1, k * k + 1), k * k)
    col_pay = rng.sample(range(1, k * k + 1), k * k)
    matrix = {profile: (row_pay[i], col_pay[i]) for i, profile in enumerate(profiles)}
    return embed_normal_form(matrix, ("Row", "Col"), (rows, cols))


def timelike_chain_setup(n: int, seed: int) -> SpacetimeSetup:
    """n go/stop points on one worldline, two agents alternating.

    Point k requires `go` at every earlier point, the only valid
    contingency triangle for a timelike chain; the n + 1 complete
    histories get tie-free payoffs.
    """
    rng = random.Random(seed)
    agents = ("A", "B")
    points = tuple(
        DecisionPoint(f"p{k}", agents[k % 2], (Fraction(0), Fraction(k)), ("go", "stop"))
        for k in range(n)
    )
    keys = [",".join(["go"] * n)] + [
        ",".join(["go"] * k + ["stop"] + ["_"] * (n - 1 - k)) for k in range(n)
    ]
    utility_map = _tie_free_utilities(rng, agents, keys)
    return SpacetimeSetup(
        dimension=2,
        agents=agents,
        actions=("go", "stop"),
        points=points,
        contingency={f"p{k}": {f"p{j}": "go" for j in range(k)} for k in range(1, n)},
        utilities={key: {agent: utility_map[(agent, key)] for agent in agents} for key in keys},
    )
