"""Game and spacetime-setup documents, solver traces, DOT export.

Both document types are strict JSON: unknown keys are rejected and
numeric payloads must be integers or decimal strings (never binary
floats), so that what round-trips is exactly what was written. Traces
serialize as an array of per-step objects followed by a final
status/equilibrium object. DOT output is deterministic byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from .exact import _digit_limit, format_exact, parse_exact
from .game import Game
from .solver import SolveResult
from .spacetime import DecisionPoint, SpacetimeSetup

GAME_KEYS = {"players", "actions", "nodes", "outcomes", "root"}
NODE_KEYS = {"id", "player", "infoset", "moves"}
OUTCOME_KEYS = {"id", "payoffs"}
SETUP_KEYS = {"dimension", "agents", "actions", "points", "contingency", "utilities"}
POINT_KEYS = {"id", "agent", "coords", "actions"}


class ParseError(ValueError):
    """Malformed document; the message carries the offending JSON path."""


def _fail(path: str, message: str) -> None:
    raise ParseError(f"{path}: {message}")


def _require_object(value: Any, path: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    unknown = set(value) - allowed
    if unknown:
        _fail(path, f"unknown keys: {', '.join(sorted(unknown))}")
    missing = allowed - set(value)
    if missing:
        _fail(path, f"missing keys: {', '.join(sorted(missing))}")
    return value


def _require_str_list(value: Any, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        _fail(path, "expected an array of strings")
    return value


def _indented_json(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the JSON-native values documents hold.

    CPython's C encoder skips indented output; here strings still go
    through it, and only the layout is built in Python.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [
            encode_basestring_ascii(item) if type(item) is str else _indented_json(item, inner) for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _indented_json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _LongInteger:
    """Stands in for an integer literal with more digits than ``int`` converts."""

    def __init__(self, literal: str) -> None:
        self.digits = len(literal.lstrip("-"))


def _int_or_long(literal: str) -> int | _LongInteger:
    try:
        return int(literal)
    except ValueError:
        return _LongInteger(literal)


def _long_integer_error(text: str) -> ParseError:
    """The error for a document holding an over-long integer literal, at its path if it is kept."""
    try:
        stack: list[tuple[str, Any]] = [("$", json.loads(text, parse_int=_int_or_long))]
    except (ValueError, RecursionError):  # malformed after the literal
        stack = []
    while stack:
        path, value = stack.pop()
        if isinstance(value, _LongInteger):
            return ParseError(f"{path}: integer literal of {value.digits} digits has more than {_digit_limit()} digits")
        if isinstance(value, dict):
            stack.extend((f"{path}.{key}", item) for key, item in reversed(value.items()))
        elif isinstance(value, list):
            stack.extend((f"{path}[{i}]", item) for i, item in reversed(list(enumerate(value))))
    return ParseError(f"an integer literal has more than {_digit_limit()} digits")


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("document is nested too deeply") from exc
    except ValueError as exc:  # what else the decoder raises: int() past the digit limit
        raise _long_integer_error(text) from exc


def parse_game(text: str) -> Game:
    """Parse a game document; structural constraints stay with validate_game."""
    doc = _require_object(_loads(text), "$", GAME_KEYS)
    players = _require_str_list(doc["players"], "$.players")
    actions = _require_str_list(doc["actions"], "$.actions")
    if not isinstance(doc["nodes"], list):
        _fail("$.nodes", "expected an array")
    if not isinstance(doc["outcomes"], list):
        _fail("$.outcomes", "expected an array")
    if not isinstance(doc["root"], str):
        _fail("$.root", "expected a string")

    seen: set[str] = set()
    choice_nodes: list[str] = []
    action_map: dict[str, tuple[str, ...]] = {}
    player_map: dict[str, str] = {}
    successor_map: dict[tuple[str, str], str] = {}
    infoset_of: dict[str, str] = {}
    for i, raw in enumerate(doc["nodes"]):
        path = f"$.nodes[{i}]"
        node = _require_object(raw, path, NODE_KEYS)
        for key in ("id", "player", "infoset"):
            if not isinstance(node[key], str):
                _fail(f"{path}.{key}", "expected a string")
        node_id = node["id"]
        if node_id in seen:
            _fail(f"{path}.id", f"DUPLICATE_ID: {node_id!r} already declared")
        seen.add(node_id)
        if not isinstance(node["moves"], dict):
            _fail(f"{path}.moves", "expected an object mapping actions to children")
        moves: dict[str, str] = {}
        for action, child in node["moves"].items():
            if not isinstance(child, str):
                _fail(f"{path}.moves.{action}", "expected a child identifier string")
            moves[action] = child
        choice_nodes.append(node_id)
        action_map[node_id] = tuple(moves)
        player_map[node_id] = node["player"]
        infoset_of[node_id] = node["infoset"]
        for action, child in moves.items():
            successor_map[(node_id, action)] = child

    outcomes: list[str] = []
    utility_map: dict[tuple[str, str], Fraction] = {}
    for i, raw in enumerate(doc["outcomes"]):
        path = f"$.outcomes[{i}]"
        outcome = _require_object(raw, path, OUTCOME_KEYS)
        if not isinstance(outcome["id"], str):
            _fail(f"{path}.id", "expected a string")
        outcome_id = outcome["id"]
        if outcome_id in seen:
            _fail(f"{path}.id", f"DUPLICATE_ID: {outcome_id!r} already declared")
        seen.add(outcome_id)
        if not isinstance(outcome["payoffs"], dict):
            _fail(f"{path}.payoffs", "expected an object mapping players to numbers")
        outcomes.append(outcome_id)
        for player, value in outcome["payoffs"].items():
            try:
                utility_map[(player, outcome_id)] = parse_exact(value, "payoff")
            except ValueError as exc:
                raise ParseError(f"{path}.payoffs.{player}: {exc}") from exc

    infosets: dict[str, list[str]] = {}
    for node_id in choice_nodes:
        infosets.setdefault(infoset_of[node_id], []).append(node_id)

    return Game(
        players=tuple(players),
        actions=tuple(actions),
        choice_nodes=tuple(choice_nodes),
        outcomes=tuple(outcomes),
        action_map=action_map,
        player_map=player_map,
        successor_map=successor_map,
        utility_map=utility_map,
        infosets={label: tuple(members) for label, members in infosets.items()},
        root=doc["root"],
    )


def game_to_jsonable(game: Game) -> dict:
    cell_of = {node: label for label, members in game.infosets.items() for node in members}
    return {
        "players": list(game.players),
        "actions": list(game.actions),
        "nodes": [
            {
                "id": node,
                "player": game.player_map[node],
                "infoset": cell_of[node],
                "moves": {a: game.successor_map[(node, a)] for a in game.action_map[node]},
            }
            for node in game.choice_nodes
        ],
        "outcomes": [
            {
                "id": z,
                "payoffs": {p: format_exact(game.utility_map[(p, z)]) for p in game.players},
            }
            for z in game.outcomes
        ],
        "root": game.root,
    }


def serialize_game(game: Game) -> str:
    return _indented_json(game_to_jsonable(game)) + "\n"


def parse_setup(text: str) -> SpacetimeSetup:
    """Parse a spacetime setup document; constraints stay with validate_setup."""
    doc = _require_object(_loads(text), "$", SETUP_KEYS)
    if not isinstance(doc["dimension"], int) or isinstance(doc["dimension"], bool):
        _fail("$.dimension", "expected an integer")
    agents = _require_str_list(doc["agents"], "$.agents")
    actions = _require_str_list(doc["actions"], "$.actions")
    if not isinstance(doc["points"], list):
        _fail("$.points", "expected an array")
    points: list[DecisionPoint] = []
    seen: set[str] = set()
    for i, raw in enumerate(doc["points"]):
        path = f"$.points[{i}]"
        point = _require_object(raw, path, POINT_KEYS)
        for key in ("id", "agent"):
            if not isinstance(point[key], str):
                _fail(f"{path}.{key}", "expected a string")
        if point["id"] in seen:
            _fail(f"{path}.id", f"DUPLICATE_ID: {point['id']!r} already declared")
        seen.add(point["id"])
        if not isinstance(point["coords"], list):
            _fail(f"{path}.coords", "expected an array of decimal strings")
        coords = []
        for j, value in enumerate(point["coords"]):
            try:
                coords.append(parse_exact(value, "coordinate"))
            except ValueError as exc:
                raise ParseError(f"{path}.coords[{j}]: {exc}") from exc
        points.append(
            DecisionPoint(
                id=point["id"],
                agent=point["agent"],
                coords=tuple(coords),
                actions=tuple(_require_str_list(point["actions"], f"{path}.actions")),
            )
        )

    if not isinstance(doc["contingency"], dict):
        _fail("$.contingency", "expected an object")
    contingency: dict[str, dict[str, str]] = {}
    for pid, row in doc["contingency"].items():
        if not isinstance(row, dict):
            _fail(f"$.contingency.{pid}", "expected an object mapping point ids to actions")
        for other, action in row.items():
            if not isinstance(action, str):
                _fail(f"$.contingency.{pid}.{other}", "expected an action string")
        contingency[pid] = dict(row)

    if not isinstance(doc["utilities"], dict):
        _fail("$.utilities", "expected an object")
    utilities: dict[str, dict[str, Fraction]] = {}
    for key, row in doc["utilities"].items():
        if not isinstance(row, dict):
            _fail(f"$.utilities.{key}", "expected an object mapping agents to numbers")
        entry: dict[str, Fraction] = {}
        for agent, value in row.items():
            try:
                entry[agent] = parse_exact(value, "payoff")
            except ValueError as exc:
                raise ParseError(f"$.utilities.{key}.{agent}: {exc}") from exc
        utilities[key] = entry

    return SpacetimeSetup(
        dimension=doc["dimension"],
        agents=tuple(agents),
        actions=tuple(actions),
        points=tuple(points),
        contingency=contingency,
        utilities=utilities,
    )


def setup_to_jsonable(setup: SpacetimeSetup) -> dict:
    return {
        "dimension": setup.dimension,
        "agents": list(setup.agents),
        "actions": list(setup.actions),
        "points": [
            {
                "id": point.id,
                "agent": point.agent,
                "coords": [str(format_exact(c)) for c in point.coords],
                "actions": list(point.actions),
            }
            for point in setup.points
        ],
        "contingency": {pid: dict(row) for pid, row in setup.contingency.items()},
        "utilities": {
            key: {agent: format_exact(value) for agent, value in row.items()}
            for key, row in setup.utilities.items()
        },
    }


def serialize_setup(setup: SpacetimeSetup) -> str:
    return _indented_json(setup_to_jsonable(setup)) + "\n"


def trace_to_jsonable(game: Game, result: SolveResult) -> list:
    """The full elimination trace: one object per step, then the verdict."""
    cell_position = {cell: i for i, cell in enumerate(game.infosets)}
    outcome_position = {z: i for i, z in enumerate(game.outcomes)}
    steps = []
    for state in result.steps:
        cells = sorted(state.reached, key=cell_position.__getitem__)
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
                    {
                        "outcome": z,
                        "player": state.preempted_by[z][0][0],
                        "infoset": state.preempted_by[z][0][1],
                    }
                    for z in sorted(state.preempted, key=outcome_position.__getitem__)
                ],
            }
        )
    ordered_fixpoint = [z for z in game.outcomes if z in result.fixpoint]
    equilibrium: Any
    if len(ordered_fixpoint) == 1:
        equilibrium = ordered_fixpoint[0]
    elif not ordered_fixpoint:
        equilibrium = None
    else:
        equilibrium = ordered_fixpoint
    steps.append({"status": result.status, "equilibrium": equilibrium})
    return steps


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(game: Game, result: SolveResult, step: int) -> str:
    """Render the game tree at one elimination step as a DOT digraph.

    Outcomes no longer surviving at that step are gray; the nodes of
    every reached cell are black; cells are dashed clusters. When a
    single outcome survives it is drawn with a double border. Output is
    byte-identical across runs for the same inputs.
    """
    if step < 0 or step >= len(result.steps):
        raise ValueError(f"step {step} outside trace range 0..{len(result.steps) - 1}")
    state = result.steps[step]
    node_ids = {element: f"n{i}" for i, element in enumerate(game.choice_nodes)}
    node_ids.update({element: f"z{i}" for i, element in enumerate(game.outcomes)})

    lines = ["digraph game {", '  node [fontname="Helvetica"];']
    for index, (label, members) in enumerate(game.infosets.items()):
        player = game.cell_player(label)
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append("    style=dashed;")
        lines.append(f'    label="{_dot_escape(label)} ({_dot_escape(player)})";')
        for node in members:
            style = (
                "style=filled, fillcolor=black, fontcolor=white"
                if label in state.reached
                else "style=solid"
            )
            lines.append(
                f'    {node_ids[node]} [shape=circle, label="{_dot_escape(node)}", {style}];'
            )
        lines.append("  }")
    for z in game.outcomes:
        payoffs = ", ".join(str(format_exact(game.utility_map[(p, z)])) for p in game.players)
        label = _dot_escape(f"{z}\n({payoffs})")
        attrs = [f'shape=box, label="{label}"']
        if z not in state.surviving:
            attrs.append("style=filled, fillcolor=gray, fontcolor=gray30")
        elif len(state.surviving) == 1:
            attrs.append("peripheries=2, penwidth=2")
        lines.append(f"  {node_ids[z]} [{', '.join(attrs)}];")
    for node in game.choice_nodes:
        for action in game.action_map[node]:
            child = game.successor_map[(node, action)]
            lines.append(
                f'  {node_ids[node]} -> {node_ids[child]} [label="{_dot_escape(action)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
