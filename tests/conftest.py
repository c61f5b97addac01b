from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Sequence

import pytest

from ptesolver import (
    DecisionPoint,
    Game,
    SpacetimeSetup,
    build_game,
    causal_dag,
    embed_normal_form,
    parse_setup,
    total_order,
)
from ptesolver.spacetime import _Triangle

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


# -- seeded random generators --------------------------------------------------
# Deterministic per seed. Tie freedom comes by construction (per-player
# permutations of 1..|Z|), never by rejection sampling over reals.

SHAPES = ("normal_form", "perfect_info", "general_imperfect", "spacetime")


@dataclass(frozen=True)
class GeneratorParams:
    seed: int
    max_players: int = 2
    max_depth: int = 4
    max_actions: int = 3
    max_outcomes: int = 20
    no_ties: bool = True
    shape: str = "general_imperfect"

    def check(self) -> None:
        if min(self.max_players, self.max_depth, self.max_actions, self.max_outcomes) < 1:
            raise ValueError("generator bounds must be positive")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")


def _payoff_values(rng: random.Random, count: int, no_ties: bool) -> list[int]:
    if no_ties:
        values = list(range(1, count + 1))
        rng.shuffle(values)
        return values
    return [rng.randint(1, max(1, count)) for _ in range(count)]


def random_matrix(
    seed: int,
    max_rows: int = 4,
    max_cols: int = 4,
    no_ties: bool = True,
) -> tuple[dict[tuple[str, str], tuple[int, int]], tuple[str, str], tuple[tuple[str, ...], tuple[str, ...]]]:
    """A random two-player matrix with its players and action lists."""
    rng = random.Random(seed)
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    row_actions = tuple(f"r{i}" for i in range(rows))
    col_actions = tuple(f"c{j}" for j in range(cols))
    profiles = list(product(row_actions, col_actions))
    row_pay = _payoff_values(rng, len(profiles), no_ties)
    col_pay = _payoff_values(rng, len(profiles), no_ties)
    matrix = {
        profile: (row_pay[i], col_pay[i]) for i, profile in enumerate(profiles)
    }
    return matrix, ("Row", "Col"), (row_actions, col_actions)


def _random_normal_form(rng: random.Random, params: GeneratorParams) -> Game:
    n_players = rng.randint(1, params.max_players)
    sizes = []
    prod_so_far = 1
    for _ in range(n_players):
        cap = max(1, min(params.max_actions, params.max_outcomes // prod_so_far))
        size = rng.randint(1, cap)
        sizes.append(size)
        prod_so_far *= size
    players = [f"P{i}" for i in range(n_players)]
    action_lists = [[f"a{i}_{j}" for j in range(sizes[i])] for i in range(n_players)]
    profiles = list(product(*action_lists))
    per_player = [_payoff_values(rng, len(profiles), params.no_ties) for _ in players]
    matrix = {
        profile: tuple(per_player[i][k] for i in range(n_players))
        for k, profile in enumerate(profiles)
    }
    return embed_normal_form(matrix, players, action_lists)


def _random_tree(rng: random.Random, params: GeneratorParams, singleton_cells: bool) -> Game:
    """Random game tree; cells merge same-depth compatible nodes unless singleton."""
    n_players = rng.randint(1, params.max_players)
    players = [f"P{i}" for i in range(n_players)]
    pool = [f"m{k}" for k in range(params.max_actions)]
    target = rng.randint(2, params.max_outcomes) if params.max_outcomes >= 2 else 1

    nodes: list[str] = []
    outcomes: list[str] = []
    action_map: dict[str, tuple[str, ...]] = {}
    player_map: dict[str, str] = {}
    successor_map: dict[tuple[str, str], str] = {}
    depth_of: dict[str, int] = {}

    def grow(budget: int, depth: int) -> str:
        if budget == 1 or depth >= params.max_depth or (depth > 0 and rng.random() < 0.25):
            z = f"z{len(outcomes)}"
            outcomes.append(z)
            return z
        width = rng.randint(2, min(params.max_actions, budget)) if params.max_actions >= 2 else 1
        node = f"n{len(nodes)}"
        nodes.append(node)
        depth_of[node] = depth
        action_map[node] = tuple(pool[:width])
        player_map[node] = rng.choice(players)
        cuts = sorted(rng.sample(range(1, budget), width - 1)) if width > 1 else []
        shares = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        for action, share in zip(action_map[node], shares):
            successor_map[(node, action)] = grow(share, depth + 1)
        return node

    root = grow(target, 0)

    infosets: dict[str, tuple[str, ...]] = {}
    if singleton_cells:
        for k, node in enumerate(nodes):
            infosets[f"i{k}"] = (node,)
    else:
        groups: dict[tuple[int, str, tuple[str, ...]], list[str]] = {}
        for node in nodes:
            key = (depth_of[node], player_map[node], action_map[node])
            groups.setdefault(key, []).append(node)
        label = 0
        for key in sorted(groups):
            members = groups[key]
            rng.shuffle(members)
            while members:
                take = rng.randint(1, len(members))
                infosets[f"i{label}"] = tuple(sorted(members[:take], key=nodes.index))
                members = members[take:]
                label += 1

    utility_map: dict[tuple[str, str], Fraction] = {}
    for player in players:
        values = _payoff_values(rng, len(outcomes), params.no_ties)
        for z, value in zip(outcomes, values):
            utility_map[(player, z)] = Fraction(value)

    return Game(
        players=tuple(players),
        actions=tuple(pool),
        choice_nodes=tuple(nodes),
        outcomes=tuple(outcomes),
        action_map=action_map,
        player_map=player_map,
        successor_map=successor_map,
        utility_map=utility_map,
        infosets=infosets,
        root=root,
    )


def random_setup(
    seed: int,
    max_agents: int = 3,
    max_actions: int = 3,
    max_points: int = 5,
    max_outcomes: int = 40,
    no_ties: bool = True,
) -> SpacetimeSetup:
    """Deterministic random spacetime setup with a valid forced triangle."""
    rng = random.Random(seed)
    n_agents = rng.randint(1, max_agents)
    agents = tuple(f"P{i}" for i in range(n_agents))
    pool = tuple(f"g{k}" for k in range(max_actions))
    for attempt in range(64):
        sub = random.Random(rng.randrange(1 << 30) + attempt)
        n_points = sub.randint(0, max(1, max_points - attempt // 8))
        points = []
        for k in range(n_points):
            width = sub.randint(1, min(max_actions, max_outcomes))
            coords = (Fraction(sub.randint(-6, 6)), Fraction(sub.randint(-6, 6)))
            points.append(
                DecisionPoint(
                    id=f"d{k}",
                    agent=sub.choice(agents),
                    coords=coords,
                    actions=tuple(pool[:width]),
                )
            )
        setup = SpacetimeSetup(
            dimension=2,
            agents=agents,
            actions=pool,
            points=tuple(points),
            contingency=_forced_triangle(sub, points),
            utilities={},
        )
        # The walk stops only past HISTORY_SLACK (1024) complete histories, far more than these setups have.
        complete = _Triangle(setup).histories[0]
        if not complete or len(complete) > max_outcomes:
            continue
        utilities: dict[str, dict[str, Fraction]] = {h.key(): {} for h in complete}
        for agent in agents:
            values = _payoff_values(sub, len(complete), no_ties)
            for history, value in zip(complete, values):
                utilities[history.key()][agent] = Fraction(value)
        return SpacetimeSetup(
            dimension=2,
            agents=agents,
            actions=pool,
            points=tuple(points),
            contingency=setup.contingency,
            utilities=utilities,
        )
    raise ValueError("could not generate a setup within the outcome bound")


def _random_spacetime(rng: random.Random, params: GeneratorParams) -> Game:
    return build_game(
        random_setup(
            seed=rng.randrange(1 << 30),
            max_agents=params.max_players,
            max_actions=params.max_actions,
            max_points=5,
            max_outcomes=params.max_outcomes,
            no_ties=params.no_ties,
        )
    )


def _forced_triangle(rng: random.Random, points: Sequence[DecisionPoint]) -> dict[str, dict[str, str]]:
    """The contingency entries are forced up to the choice of required action."""
    probe = SpacetimeSetup(
        dimension=2,
        agents=tuple(dict.fromkeys(p.agent for p in points)),
        actions=tuple(dict.fromkeys(a for p in points for a in p.actions)),
        points=tuple(points),
        contingency={},
        utilities={},
    )
    order = total_order(probe)
    dag = causal_dag(probe)
    rows: list[list[str | None]] = []
    contingency: dict[str, dict[str, str]] = {}
    for k, point in enumerate(order):
        row: list[str | None] = []
        for l in range(k):
            earlier = order[l]
            precedes = point.id in dag[earlier.id]
            consistent = all(
                a is None or a == row[m] for m, a in enumerate(rows[l])
            )
            if precedes and consistent:
                choice = rng.choice(earlier.actions)
                row.append(choice)
                contingency.setdefault(point.id, {})[earlier.id] = choice
            else:
                row.append(None)
        rows.append(row)
    return contingency


def random_game(params: GeneratorParams) -> Game:
    """Deterministic random game of the requested shape, always canonical."""
    params.check()
    rng = random.Random(params.seed)
    if params.shape == "normal_form":
        return _random_normal_form(rng, params)
    if params.shape == "perfect_info":
        return _random_tree(rng, params, singleton_cells=True)
    if params.shape == "general_imperfect":
        return _random_tree(rng, params, singleton_cells=False)
    return _random_spacetime(rng, params)


def random_tree_game(seed: int, **overrides) -> Game:
    params = dict(seed=seed, shape="general_imperfect", max_players=3, max_depth=4)
    params.update(overrides)
    return random_game(GeneratorParams(**params))


# -- exact-size generators, at the benchmark's input sizes ---------------------


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
        utility_map={
            (player, z): Fraction(value)
            for player in players
            for z, value in zip(outcomes, _payoff_values(rng, len(outcomes), True))
        },
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
    payoffs = {agent: _payoff_values(rng, len(keys), True) for agent in agents}
    return SpacetimeSetup(
        dimension=2,
        agents=agents,
        actions=("go", "stop"),
        points=points,
        contingency={f"p{k}": {f"p{j}": "go" for j in range(k)} for k in range(1, n)},
        utilities={key: {agent: Fraction(payoffs[agent][i]) for agent in agents} for i, key in enumerate(keys)},
    )
