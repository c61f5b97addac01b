"""Brute-force cross-checks and seeded generators for the solver.

Everything here recomputes results from first principles, sharing only
the data types with the solver: descendant sets come from explicit
root-to-leaf path enumeration, reach from path intersection, preemption
from a plain triple loop. Equivalence tests against the solver would be
meaningless otherwise. Generators are deterministic per seed, and tie
freedom is obtained by construction (per-player permutations of 1..|Z|),
never by rejection sampling over reals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Mapping, Sequence

from .exact import parse_exact
from .game import Game, embed_normal_form
from .solver import (
    EMPTY,
    MULTIPLE_WITH_TIES,
    UNIQUE,
    NotCanonicalError,
    SolveResult,
    SolverState,
    solve,
)
from .spacetime import DecisionPoint, SpacetimeSetup, _Triangle, build_game, causal_dag, total_order

SHAPES = ("normal_form", "perfect_info", "general_imperfect", "spacetime")

Matrix = Mapping[tuple[str, ...], Sequence[object]]

# The most rows or columns search_empty_pte accepts. Its space grows as
# (r*c)!**2, so even 3 x 3 cannot be exhausted; the bound only keeps the
# list of sizes small before the 2 x 2 witness is found.
SEARCH_LIMIT = 8


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


def pareto_frontier(game: Game) -> frozenset[str]:
    """Outcomes no other outcome improves for everyone (strictly for someone)."""
    frontier = []
    for z in game.outcomes:
        dominated = False
        for other in game.outcomes:
            if other == z:
                continue
            if all(game.utility(p, other) >= game.utility(p, z) for p in game.players) and any(
                game.utility(p, other) > game.utility(p, z) for p in game.players
            ):
                dominated = True
                break
        if not dominated:
            frontier.append(z)
    return frozenset(frontier)


def normal_form_maximin(
    matrix: Matrix,
    players: Sequence[str],
    action_lists: Sequence[Sequence[str]],
    player: str,
) -> Fraction:
    """Matrix maximin by direct scan over own actions and opponent profiles."""
    me = list(players).index(player)
    best = None
    for own in action_lists[me]:
        worst = None
        for profile in product(*action_lists):
            if profile[me] != own:
                continue
            value = parse_exact(matrix[profile][me], "payoff")
            if worst is None or value < worst:
                worst = value
        if worst is not None and (best is None or worst > best):
            best = worst
    if best is None:
        raise ValueError("empty matrix")
    return best


def _paths(game: Game) -> dict[str, tuple[tuple[str, str], ...]]:
    """Element -> the (node, action) pairs from the root down to it."""
    paths: dict[str, tuple[tuple[str, str], ...]] = {game.root: ()}
    stack = [game.root]
    while stack:
        element = stack.pop()
        if element not in game.player_map:
            continue
        for action in game.action_map[element]:
            child = game.successor_map[(element, action)]
            paths[child] = paths[element] + ((element, action),)
            stack.append(child)
    return paths


def naive_solve(game: Game) -> SolveResult:
    """Re-derivation of the elimination from explicit path enumeration.

    No descendant sets, no navigation helpers: an outcome is below a cell
    iff its root path crosses a member node, and the action it took there
    is read off the path. Must agree with :func:`ptesolver.solver.solve`
    step for step.
    """
    paths = _paths(game)
    cell_of = {node: label for label, members in game.infosets.items() for node in members}

    for node in game.choice_nodes:
        for ancestor, _ in paths[node]:
            if cell_of[ancestor] == cell_of[node]:
                raise NotCanonicalError(
                    f"information set {cell_of[node]!r} contains node {node!r} and its "
                    f"ancestor {ancestor!r}; canonicalize the game first"
                )

    ties = False
    for player in game.players:
        values = [game.utility(player, z) for z in game.outcomes]
        if len(set(values)) != len(values):
            ties = True

    def action_at(cell: str, z: str) -> str | None:
        for node, action in paths[z]:
            if cell_of[node] == cell:
                return action
        return None

    surviving = frozenset(game.outcomes)
    steps: list[SolverState] = []
    step = 0
    while surviving:
        reached = frozenset(
            cell
            for cell in game.infosets
            if all(action_at(cell, z) is not None for z in surviving)
        )
        maximins: dict[str, tuple[Fraction, str]] = {}
        for cell in game.infosets:
            if cell not in reached:
                continue
            player = game.player_map[game.infosets[cell][0]]
            best = None
            for action in game.action_map[game.infosets[cell][0]]:
                pool = [z for z in surviving if action_at(cell, z) == action]
                if not pool:
                    continue
                worst = min(game.utility(player, z) for z in pool)
                if best is None or worst > best[0]:
                    best = (worst, action)
            if best is None:
                raise RuntimeError(f"no action at {cell!r} leads to a surviving outcome")
            maximins[cell] = best
        witnesses: dict[str, list[tuple[str, str]]] = {}
        for cell in game.infosets:
            if cell not in reached:
                continue
            player = game.player_map[game.infosets[cell][0]]
            value, argmax = maximins[cell]
            for z in surviving:
                if game.utility(player, z) < value:
                    if argmax == action_at(cell, z):
                        raise RuntimeError(
                            f"preemption witness at {cell!r} coincides with the action toward {z!r}"
                        )
                    witnesses.setdefault(z, []).append((player, cell))
        by = {z: tuple(witnesses[z]) for z in game.outcomes if z in witnesses}
        eliminated = frozenset(by)
        steps.append(SolverState(step, surviving, reached, maximins, eliminated, by))
        if not eliminated:
            break
        surviving = surviving - eliminated
        step += 1
    if len(surviving) == 1:
        status = UNIQUE
    elif not surviving:
        status = EMPTY
    else:
        status = MULTIPLE_WITH_TIES
    return SolveResult(fixpoint=surviving, steps=tuple(steps), has_ties=ties, status=status)


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
        # The walk stops past max_outcomes complete histories, which rejects the setup.
        complete = _Triangle(setup, slack=max_outcomes).histories[0]
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


def search_empty_pte(
    max_rows: int = 3,
    max_cols: int = 3,
    accept: Callable[[dict[tuple[str, str], tuple[int, int]]], bool] | None = None,
) -> Game | None:
    """First no-tie two-player matrix whose elimination empties out.

    Enumerates matrix sizes smallest first and, within a size, payoff
    permutation pairs in lexicographic order, so the witness is
    reproducible. ``accept`` restricts the search space (e.g. to
    symmetric games). The witness is re-verified with naive_solve before
    being returned; None means the whole space yielded a survivor. Bounds
    past ``SEARCH_LIMIT`` raise ValueError before anything is enumerated.
    """
    if max(max_rows, max_cols) > SEARCH_LIMIT:
        raise ValueError(
            f"search bounds of {max_rows} rows and {max_cols} columns are refused; at most {SEARCH_LIMIT} of each"
        )
    sizes = sorted(
        ((r, c) for r in range(2, max_rows + 1) for c in range(2, max_cols + 1)),
        key=lambda rc: (rc[0] * rc[1], rc),
    )
    for rows, cols in sizes:
        row_actions = tuple(f"r{i}" for i in range(rows))
        col_actions = tuple(f"c{j}" for j in range(cols))
        profiles = list(product(row_actions, col_actions))
        values = range(1, len(profiles) + 1)
        for row_pay in permutations(values):
            for col_pay in permutations(values):
                matrix = {
                    profile: (row_pay[i], col_pay[i]) for i, profile in enumerate(profiles)
                }
                if accept is not None and not accept(matrix):
                    continue
                game = embed_normal_form(matrix, ("Row", "Col"), (row_actions, col_actions))
                if solve(game).status == EMPTY and naive_solve(game).status == EMPTY:
                    return game
    return None
