"""Seeded, exact-size documents for the four benchmark workloads.

Each workload turns a document seed into one input document, the chain
of `pte` commands a user would run on it, and (computed separately, so it
stays outside the timed region) the exit code and standard output every
command must produce. Documents are built as plain JSON, independently of
the package, so the program under test only ever sees their text.

Expected outputs come from independent derivations: solver traces from
the brute-force `naive_solve` (path enumeration), validation flags and
canonical forms from explicit root-path walks here, and spacetime games
from the closed form of a timelike chain. Only rendering reuses the
package's documented serializers (`trace_to_jsonable`, `export_dot`),
fed with the oracle's result.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# Input sizes: full runs and the smoke mode's smallest inputs.
SIZES = {
    "tree-deep": {"full": 8, "smoke": 4},  # depth of a complete binary tree
    "matrix-wide": {"full": 24, "smoke": 4},  # k of a k x k normal form
    "imperfect-canon": {"full": 10, "smoke": 5},  # depth of a binary tree
    "spacetime-chain": {"full": 160, "smoke": 10},  # decision points on one worldline
}

EXIT_BY_STATUS = {"unique": 0, "empty": 2, "multiple_with_ties": 3}


@dataclass(frozen=True)
class Command:
    """One `pte` invocation; its stdin is the document or the previous stdout."""

    argv: tuple[str, ...]
    stdin_from_previous: bool = False


@dataclass(frozen=True)
class Document:
    text: str
    spec: dict
    chain: tuple[Command, ...]


def doc_rng(workload: str, seed: int, index: int) -> random.Random:
    """Per-document generator; string seeds hash deterministically."""
    return random.Random(f"{workload}:{seed}:{index}")


def _dumps(doc) -> str:
    """JSON as `pte` prints it: two-space indent and a final newline."""
    return json.dumps(doc, indent=2) + "\n"


def _permutation(rng: random.Random, count: int) -> list[int]:
    values = list(range(1, count + 1))
    rng.shuffle(values)
    return values


def _outcomes(rng: random.Random, ids: list[str], players: list[str]) -> list[dict]:
    """Tie-free payoffs: each player ranks the outcomes by a fresh permutation."""
    columns = [_permutation(rng, len(ids)) for _ in players]
    return [
        {"id": z, "payoffs": {p: columns[i][k] for i, p in enumerate(players)}}
        for k, z in enumerate(ids)
    ]


def _binary_tree(depth: int) -> tuple[list[str], list[str]]:
    """Choice-node paths in preorder and outcome paths left to right."""
    nodes: list[str] = []
    outcomes: list[str] = []
    stack = [""]
    while stack:
        path = stack.pop()
        if len(path) == depth:
            outcomes.append(path)
            continue
        nodes.append(path)
        stack.extend((path + "R", path + "L"))
    return nodes, outcomes


# -- generators --------------------------------------------------------------


def perfect_tree(rng: random.Random, depth: int) -> dict:
    """Complete binary perfect-information tree; players alternate by depth."""
    players = ["P1", "P2"]
    nodes, outcomes = _binary_tree(depth)
    return {
        "players": players,
        "actions": ["L", "R"],
        "nodes": [
            {
                "id": path,
                "player": players[len(path) % 2],
                "infoset": "c" + path,
                "moves": {"L": path + "L", "R": path + "R"},
            }
            for path in nodes
        ],
        "outcomes": _outcomes(rng, outcomes, players),
        "root": "",
    }


def normal_form(rng: random.Random, k: int) -> dict:
    """A k x k matrix in the document shape `embed_normal_form` produces."""
    rows = [f"r{i}" for i in range(k)]
    cols = [f"c{j}" for j in range(k)]
    nodes = [{"id": "", "player": "Row", "infoset": "Row", "moves": {r: r for r in rows}}]
    nodes += [
        {"id": r, "player": "Col", "infoset": "Col", "moves": {c: f"{r},{c}" for c in cols}}
        for r in rows
    ]
    outcomes = [f"{r},{c}" for r in rows for c in cols]
    return {
        "players": ["Row", "Col"],
        "actions": rows + cols,
        "nodes": nodes,
        "outcomes": _outcomes(rng, outcomes, ["Row", "Col"]),
        "root": "",
    }


def imperfect_tree(rng: random.Random, depth: int) -> dict:
    """Binary tree that is deliberately not canonical.

    Each node at depth >= 2 joins its grandparent's cell with probability
    1/2: of every pair of siblings, one chosen at random joins. Drawing
    per pair rather than per node keeps the canonical size, and with it
    the cost of a document, from swinging with a few draws near the root.
    The other nodes at a depth are grouped left to right into cells of up
    to 32 consecutive nodes. Players alternate by depth, so every cell has
    one player and the action set {L, R}.
    """
    players = ["P1", "P2"]
    nodes, outcomes = _binary_tree(depth)
    cell: dict[str, str] = {}
    for d in range(depth):
        level = sorted(p for p in nodes if len(p) == d)
        joining = {left[:-1] + rng.choice("LR") for left in level[::2]} if d >= 2 else set()
        grouped = []
        for path in level:
            if path in joining:
                cell[path] = cell[path[:-2]]
            else:
                grouped.append(path)
        for i, path in enumerate(grouped):
            cell[path] = f"d{d}g{i // 32}"
    return {
        "players": players,
        "actions": ["L", "R"],
        "nodes": [
            {
                "id": path,
                "player": players[len(path) % 2],
                "infoset": cell[path],
                "moves": {"L": path + "L", "R": path + "R"},
            }
            for path in nodes
        ],
        "outcomes": _outcomes(rng, outcomes, players),
        "root": "",
    }


def _chain_keys(n: int) -> tuple[list[str], list[str]]:
    """History keys of an n-point go/stop chain: pending nodes, then outcomes.

    Node k is k times `go`; outcomes are the all-`go` history and then
    `stop` at point n-1, n-2, ..., 0, padded with `_` (the preorder of the
    history tree with `go` explored first).
    """
    nodes = [",".join(["go"] * k) for k in range(n)]
    outcomes = [",".join(["go"] * n)] + [
        ",".join(["go"] * k + ["stop"] + ["_"] * (n - 1 - k)) for k in reversed(range(n))
    ]
    return nodes, outcomes


def timelike_chain(rng: random.Random, n: int) -> dict:
    """n decision points at x = 0, t = 0..n-1; two agents alternate.

    Point k is contingent on `go` at every earlier point, the only valid
    contingency triangle for a timelike chain.
    """
    agents = ["A", "B"]
    _, outcomes = _chain_keys(n)
    payoffs = _outcomes(rng, outcomes, agents)
    return {
        "dimension": 2,
        "agents": agents,
        "actions": ["go", "stop"],
        "points": [
            {"id": f"p{k}", "agent": agents[k % 2], "coords": ["0", str(k)], "actions": ["go", "stop"]}
            for k in range(n)
        ],
        "contingency": {f"p{k}": {f"p{j}": "go" for j in range(k)} for k in range(1, n)},
        "utilities": {entry["id"]: entry["payoffs"] for entry in payoffs},
    }


def chain_game(setup: dict) -> dict:
    """The game document `spacetime-build --game-only` must print for a chain."""
    n = len(setup["points"])
    agents = setup["agents"]
    nodes, outcomes = _chain_keys(n)
    after = nodes[1:] + [outcomes[0]]
    return {
        "players": agents,
        "actions": setup["actions"],
        "nodes": [
            {
                "id": node,
                "player": agents[k % 2],
                "infoset": f"p{k}",
                "moves": {"go": after[k], "stop": outcomes[n - k]},
            }
            for k, node in enumerate(nodes)
        ],
        "outcomes": [{"id": z, "payoffs": setup["utilities"][z]} for z in outcomes],
        "root": "",
    }


# -- independent expectations --------------------------------------------------


def _root_paths(doc: dict) -> dict[str, list[tuple[str, str]]]:
    """Element -> the (node, action) pairs on its path from the root."""
    moves = {node["id"]: node["moves"] for node in doc["nodes"]}
    paths: dict[str, list[tuple[str, str]]] = {doc["root"]: []}
    stack = [doc["root"]]
    while stack:
        element = stack.pop()
        for action, child in moves.get(element, {}).items():
            paths[child] = paths[element] + [(element, action)]
            stack.append(child)
    return paths


def expected_report(doc: dict) -> str:
    """`pte validate` output for a structurally valid game document."""
    paths = _root_paths(doc)
    cell = {node["id"]: node["infoset"] for node in doc["nodes"]}
    player = {node["id"]: node["player"] for node in doc["nodes"]}
    canonical = all(cell[h] != cell[node] for node in cell for h, _ in paths[node])
    experiences: dict[str, set] = {}
    for node in cell:
        own = tuple((cell[h], a) for h, a in paths[node] if player[h] == player[node])
        experiences.setdefault(cell[node], set()).add(own)
    ties = any(
        len({z["payoffs"][p] for z in doc["outcomes"]}) != len(doc["outcomes"])
        for p in doc["players"]
    )
    report = {
        "errors": [],
        "warnings": [],
        "is_canonical": canonical,
        "has_perfect_recall": all(len(seen) == 1 for seen in experiences.values()),
        "has_ties": ties,
    }
    return _dumps(report)


def canonical_form(doc: dict) -> dict:
    """Prune by walking the tree once with the actions already fixed per cell.

    A node whose cell was decided higher on its path makes no decision:
    play continues at its child under that earlier action, and everything
    else below it is unreachable. Kept elements keep their declaration
    order, ids and cell labels.
    """
    node_of = {node["id"]: node for node in doc["nodes"]}
    moves: dict[str, dict[str, str]] = {}
    kept_outcomes: set[str] = set()

    def resolve(element: str, fixed: dict[str, str]) -> str:
        while element in node_of and node_of[element]["infoset"] in fixed:
            element = node_of[element]["moves"][fixed[node_of[element]["infoset"]]]
        if element not in node_of:
            kept_outcomes.add(element)
        return element

    root = resolve(doc["root"], {})
    stack = [(root, {})] if root in node_of else []
    while stack:
        node, fixed = stack.pop()
        label = node_of[node]["infoset"]
        moves[node] = {}
        for action, child in node_of[node]["moves"].items():
            below = dict(fixed, **{label: action})
            target = resolve(child, below)
            moves[node][action] = target
            if target in node_of:
                stack.append((target, below))
    return {
        "players": doc["players"],
        "actions": doc["actions"],
        "nodes": [dict(node, moves=moves[node["id"]]) for node in doc["nodes"] if node["id"] in moves],
        "outcomes": [z for z in doc["outcomes"] if z["id"] in kept_outcomes],
        "root": root,
    }


def _solve_expectation(naive_solve: Callable, game_text: str, dot: bool = False) -> list[tuple[int, str]]:
    from ptesolver.formats import export_dot, parse_game, trace_to_jsonable

    game = parse_game(game_text)
    result = naive_solve(game)
    expected = [(EXIT_BY_STATUS[result.status], _dumps(trace_to_jsonable(game, result)))]
    if dot:
        expected.append((0, export_dot(game, result, len(result.steps) - 1)))
    return expected


def expect(workload: str, doc: Document, naive_solve: Callable) -> list[tuple[int, str]]:
    """(exit code, stdout) every command of the document's chain must produce.

    `naive_solve` is passed in so that a traced run can time it.
    """
    if workload == "tree-deep":
        return _solve_expectation(naive_solve, doc.text)
    if workload == "matrix-wide":
        return [(0, expected_report(doc.spec))] + _solve_expectation(naive_solve, doc.text, dot=True)
    if workload == "imperfect-canon":
        canonical = canonical_form(doc.spec)
        if not json.loads(expected_report(canonical))["is_canonical"]:
            raise AssertionError("the expected canonical form is not canonical")
        text = _dumps(canonical)
        return [(0, expected_report(doc.spec)), (0, text)] + _solve_expectation(naive_solve, text)
    if workload == "spacetime-chain":
        text = _dumps(chain_game(doc.spec))
        return [(0, text)] + _solve_expectation(naive_solve, text)
    raise KeyError(workload)


GENERATORS = {
    "tree-deep": (perfect_tree, (Command(("solve", "-")),)),
    "matrix-wide": (
        normal_form,
        (Command(("validate", "-")), Command(("solve", "-")), Command(("export-dot", "-"))),
    ),
    "imperfect-canon": (
        imperfect_tree,
        (
            Command(("validate", "-")),
            Command(("canonicalize", "-")),
            Command(("solve", "-"), stdin_from_previous=True),
        ),
    ),
    "spacetime-chain": (
        timelike_chain,
        (
            Command(("spacetime-build", "--game-only", "-")),
            Command(("solve", "-"), stdin_from_previous=True),
        ),
    ),
}


def generate(workload: str, seed: int, index: int, size: int) -> Document:
    make, chain = GENERATORS[workload]
    spec = make(doc_rng(workload, seed, index), size)
    return Document(text=_dumps(spec), spec=spec, chain=chain)
