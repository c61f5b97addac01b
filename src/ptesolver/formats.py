"""Game and spacetime-setup documents, solver traces, DOT export.

Both document types are strict JSON: unknown keys are rejected and
numeric payloads must be integers or decimal strings (never binary
floats), so that what round-trips is exactly what was written. Traces
serialize as an array of per-step objects followed by a final
status/equilibrium object. DOT output is deterministic byte for byte.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .exact import _digit_limit, format_exact, parse_exact
from .game import Game
from .solver import SolveResult

# Annotation-only names: `typing` is not loaded at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, TextIO

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


class _Encoded(list):
    """Strings already encoded as JSON, which ``_indented_json`` lays out as they are."""


def _indented_json(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the JSON-native values documents hold.

    CPython's C encoder skips indented output; here strings still go
    through it, and only the layout is built in Python. Strings and ints
    inside a container are written without a call of their own.
    """
    inner = newline + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        if type(value) is _Encoded:
            items = value
        else:
            items = [
                encode_basestring_ascii(item) if type(item) is str else _indented_json(item, inner) for item in value
            ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(k)
            + ": "
            + (
                encode_basestring_ascii(v)
                if type(v) is str
                else int.__repr__(v) if type(v) is int else _indented_json(v, inner)
            )
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
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
    infosets: dict[str, list[str]] = {}
    # Checks run in document order, so the first error found is the one
    # reported; an element's JSON path is spelled out only for an error.
    # The decoder makes every string a str and every object a dict, so an
    # exact type test is the isinstance test here.
    for i, node in enumerate(doc["nodes"]):
        if type(node) is not dict or node.keys() != NODE_KEYS:
            _require_object(node, f"$.nodes[{i}]", NODE_KEYS)
        node_id, player, infoset, moves = node["id"], node["player"], node["infoset"], node["moves"]
        if type(node_id) is not str or type(player) is not str or type(infoset) is not str:
            for key in ("id", "player", "infoset"):
                if not isinstance(node[key], str):
                    _fail(f"$.nodes[{i}].{key}", "expected a string")
        if node_id in seen:
            _fail(f"$.nodes[{i}].id", f"DUPLICATE_ID: {node_id!r} already declared")
        seen.add(node_id)
        if type(moves) is not dict:
            _fail(f"$.nodes[{i}].moves", "expected an object mapping actions to children")
        for action, child in moves.items():
            if type(child) is not str:
                _fail(f"$.nodes[{i}].moves.{action}", "expected a child identifier string")
            successor_map[node_id, action] = child
        choice_nodes.append(node_id)
        action_map[node_id] = tuple(moves)
        player_map[node_id] = player
        infosets.setdefault(infoset, []).append(node_id)

    outcomes: list[str] = []
    utility_map: dict[tuple[str, str], Fraction] = {}
    # One Fraction per distinct integer payoff of this document.
    exact_ints: dict[int, Fraction] = {}
    for i, outcome in enumerate(doc["outcomes"]):
        if type(outcome) is not dict or outcome.keys() != OUTCOME_KEYS:
            _require_object(outcome, f"$.outcomes[{i}]", OUTCOME_KEYS)
        outcome_id, payoffs = outcome["id"], outcome["payoffs"]
        if type(outcome_id) is not str:
            _fail(f"$.outcomes[{i}].id", "expected a string")
        if outcome_id in seen:
            _fail(f"$.outcomes[{i}].id", f"DUPLICATE_ID: {outcome_id!r} already declared")
        seen.add(outcome_id)
        if type(payoffs) is not dict:
            _fail(f"$.outcomes[{i}].payoffs", "expected an object mapping players to numbers")
        outcomes.append(outcome_id)
        for player, value in payoffs.items():
            if type(value) is int:
                exact = exact_ints.get(value)
                if exact is None:
                    exact = exact_ints[value] = Fraction(value)
            else:
                try:
                    exact = parse_exact(value, "payoff")
                except ValueError as exc:
                    raise ParseError(f"$.outcomes[{i}].payoffs.{player}: {exc}") from exc
            utility_map[player, outcome_id] = exact

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
    from .spacetime import DecisionPoint, SpacetimeSetup

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
        # str.join refuses any value that is not a string, in one pass in C;
        # only then does the loop run, to name the first such value.
        try:
            "".join(row.values())
        except TypeError:
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


def _cut(items: list, cuts: list[int]) -> list:
    """``items`` without the entries at the ascending indices ``cuts``."""
    kept = items[: cuts[0]]
    for here, after in zip(cuts, cuts[1:]):
        kept += items[here + 1 : after]
    kept += items[cuts[-1] + 1 :]
    return kept


def _trace_steps(game: Game, result: SolveResult, names: Sequence[str]) -> Iterator[dict]:
    """Each step's trace object, in order: the one definition of what a step reports.

    A step lists its survivors in declaration order, as ``names[i]`` for
    the ``i``-th outcome: the previous step's list less the outcomes that
    step preempted, since each step of a solve starts from the survivors
    of the last. Only the first step's ``surviving`` set is read, and a
    step preempting an outcome that does not survive it is refused.
    """
    cell_position = {cell: i for i, cell in enumerate(game.infosets)}
    outcome_position = {z: i for i, z in enumerate(game.outcomes)}
    first = result.steps[0].surviving if result.steps else frozenset()
    spots = [i for i, z in enumerate(game.outcomes) if z in first]
    survivors = [names[i] for i in spots]
    for state in result.steps:
        cells = sorted(state.reached, key=cell_position.__getitem__)
        preempted = sorted(state.preempted, key=outcome_position.__getitem__)
        yield {
            "step": state.step,
            "surviving": survivors,
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
                for z in preempted
            ],
        }
        if preempted:
            cuts = []
            for z in preempted:
                i = bisect_left(spots, outcome_position[z])
                if i == len(spots) or spots[i] != outcome_position[z]:
                    raise ValueError(f"step {state.step} preempts {z!r}, which does not survive it")
                cuts.append(i)
            survivors, spots = _cut(survivors, cuts), _cut(spots, cuts)


def _verdict(game: Game, result: SolveResult) -> dict:
    """The trace's last object: the status and the equilibrium, if any."""
    ordered_fixpoint = [z for z in game.outcomes if z in result.fixpoint]
    equilibrium: Any
    if len(ordered_fixpoint) == 1:
        equilibrium = ordered_fixpoint[0]
    elif not ordered_fixpoint:
        equilibrium = None
    else:
        equilibrium = ordered_fixpoint
    return {"status": result.status, "equilibrium": equilibrium}


def trace_to_jsonable(game: Game, result: SolveResult) -> list:
    """The full elimination trace: one object per step, then the verdict."""
    return [*_trace_steps(game, result, game.outcomes), _verdict(game, result)]


def _write_trace(out: TextIO, game: Game, result: SolveResult) -> None:
    """Write ``_indented_json(trace_to_jsonable(game, result))`` and a newline, one step at a time.

    Each outcome id is encoded once, and a step's survivor list is joined
    from the encoded ids, so the cost follows the size of the text.
    """
    names = [encode_basestring_ascii(z) for z in game.outcomes]
    out.write("[")
    for step in _trace_steps(game, result, names):
        step["surviving"] = _Encoded(step["surviving"])
        out.write("\n  " + _indented_json(step, "\n  ") + ",")
    out.write("\n  " + _indented_json(_verdict(game, result), "\n  ") + "\n]\n")


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
    surviving = state.surviving
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
        if z not in surviving:
            attrs.append("style=filled, fillcolor=gray, fontcolor=gray30")
        elif len(surviving) == 1:
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
