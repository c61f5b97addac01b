"""Byte-identity gate: every `pte` output over a fixed corpus, held as SHA-256 digests.

The corpus is the committed fixtures, seeded `random_tree_game` games
(plain, `entangle`d and so not canonical), seeded `random_setup` setups,
and a fixed set of malformed documents whose standard error carries the
`ParseError`, validation and setup diagnostics. Each command's digest
covers, per document in corpus order, its name, the exit code, standard
output and standard error, so any change in an output, an exit code or an
error text shows. The digests match under CPython 3.10, 3.11 and 3.13. A
change that is meant to alter an output records new digests and says why.

    PYTHONPATH=src python -m pytest -q tests/test_byte_identity.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from ptesolver import serialize_game
from ptesolver.cli import run

from conftest import (
    FIXTURES,
    binary_tree_game,
    entangle,
    random_setup,
    random_tree_game,
    serialize_setup,
    square_normal_form,
)

GAME_COMMANDS = (
    ("validate",),
    ("canonicalize",),
    ("solve",),
    ("solve", "--quiet"),
    ("export-dot",),
)
SETUP_COMMANDS = (("spacetime-build",), ("spacetime-build", "--game-only"))

DIGESTS = {
    "validate": "f3ac700f0d280cd52b10bdec0cf8d2c29ad00a4a59e4fb940a82f02a6cc42bbc",
    "canonicalize": "a0454c1bda826fb4b510fc23695d75a279491555c5617182de76f1d6952ba1e8",
    "solve": "d2295906683a30e9f85838f783822c10e77fa40fedb825fd115a7ac099ac7391",
    "solve --quiet": "13cc1403e9aca6062192af323321952903e2618849ba739e998ac85ba9f66fe2",
    "export-dot": "c62197290f83b40b3e4ca2c17e7d0901dd70c41bb14ebab28ae63b234d2cb338",
    "spacetime-build": "665dc5aec2cbe984c56e7a7846efba4aa5b56633975864c80baf813c4b07a184",
    "spacetime-build --game-only": "917d5c7616663b0eb676d54473d4745100bf12fcd33b53cb9c1602bd6043b422",
}


def pte(argv: tuple[str, ...], text: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `pte` command reading ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run([*argv, "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return edit


def _drop(*path_and_key):
    *path, key = path_and_key

    def edit(doc):
        for step in path:
            doc = doc[step]
        del doc[key]

    return edit


def _both(*edits):
    def edit(doc):
        for one in edits:
            one(doc)

    return edit


def malformed_games() -> list[tuple[str, str]]:
    """Game documents with one or two faults each, from the JSON layer to the structure."""
    pd = (FIXTURES / "prisoners_dilemma.json").read_text()
    edits = {
        "node-not-object": _set("nodes", 1, 5),
        "node-extra-key": _set("nodes", 1, "chance", True),
        "node-missing-key": _drop("nodes", 1, "infoset"),
        "node-extra-and-missing": _both(_set("nodes", 0, "extra", 1), _drop("nodes", 0, "moves")),
        "node-id-int": _set("nodes", 2, "id", 7),
        "node-player-null": _set("nodes", 0, "player", None),
        "node-infoset-list": _set("nodes", 1, "infoset", ["Col"]),
        "node-extra-key-and-id-int": _both(_set("nodes", 1, "x", 0), _set("nodes", 1, "id", 0)),
        "node-id-int-and-player-int": _both(_set("nodes", 1, "id", 0), _set("nodes", 1, "player", 0)),
        "node-duplicate-id": _set("nodes", 2, "id", "C"),
        "moves-list": _set("nodes", 0, "moves", ["C", "D"]),
        "move-child-int": _set("nodes", 1, "moves", "d", 3),
        "outcome-not-object": _set("outcomes", 0, "z"),
        "outcome-extra-key": _set("outcomes", 3, "label", "x"),
        "outcome-missing-payoffs": _drop("outcomes", 2, "payoffs"),
        "outcome-id-int": _set("outcomes", 1, "id", 1),
        "outcome-id-is-a-node": _set("outcomes", 1, "id", "C"),
        "payoffs-list": _set("outcomes", 0, "payoffs", [1, 2]),
        "payoff-float": _set("outcomes", 0, "payoffs", "Row", 1.5),
        "payoff-bool": _set("outcomes", 1, "payoffs", "Col", True),
        "payoff-null": _set("outcomes", 1, "payoffs", "Col", None),
        "payoff-word": _set("outcomes", 2, "payoffs", "Row", "three"),
        "payoff-zero-denominator": _set("outcomes", 2, "payoffs", "Row", "1/0"),
        "payoff-long-string": _set("outcomes", 0, "payoffs", "Row", "7" * 5000),
        "payoff-huge-exponent": _set("outcomes", 0, "payoffs", "Row", "1e100000000"),
        "payoff-float-then-bad-id": _both(_set("outcomes", 0, "payoffs", "Row", 0.5), _set("outcomes", 3, "id", 3)),
        "missing-successor": _drop("nodes", 1, "moves", "d"),
        "unknown-root": _set("root", "nowhere"),
        "unknown-player": _set("nodes", 0, "player", "Nobody"),
        "unknown-utility-player": _set("outcomes", 0, "payoffs", "Nobody", 1),
        "missing-utility": _drop("outcomes", 3, "payoffs", "Col"),
        "forest": _set("root", "C"),
        "ties": _set("outcomes", 0, "payoffs", "Row", "5.0"),
    }
    documents = [(name, _edited(pd, edit)) for name, edit in edits.items()]
    documents += [
        ("empty", ""),
        ("not-json", "nodes: []"),
        ("top-level-array", "[]"),
        ("unterminated", pd[: len(pd) // 2]),
        ("nested-too-deeply", "[" * 100_000),
        ("long-integer-literal", pd.replace('"Row": 3', '"Row": ' + "9" * 5000, 1)),
    ]
    return documents


def malformed_setups() -> list[tuple[str, str]]:
    example = (FIXTURES / "spacetime_example.json").read_text()
    edits = {
        "unknown-key": _set("comment", "x"),
        "dimension-string": _set("dimension", "2"),
        "point-missing-coords": _drop("points", 0, "coords"),
        "coord-float": _set("points", 1, "coords", 0, 0.5),
        "point-duplicate-id": _set("points", 2, "id", "a"),
        "contingency-row-list": _set("contingency", "c", ["a"]),
        "utility-word": _set("utilities", "x", {"A": "many"}),
        "missing-utility": lambda doc: doc["utilities"].pop(next(iter(doc["utilities"]))),
        "unknown-agent": _set("points", 0, "agent", "Nobody"),
    }
    return [(name, _edited(example, edit)) for name, edit in edits.items()]


def games() -> list[tuple[str, str]]:
    fixtures = ("prisoners_dilemma.json", "empty_pte_witness.json")
    documents = [(name, (FIXTURES / name).read_text()) for name in fixtures]
    for seed in range(24):
        documents.append((f"random-{seed}", serialize_game(random_tree_game(seed))))
        documents.append((f"entangled-{seed}", serialize_game(entangle(random_tree_game(seed), seed))))
        documents.append((f"tied-{seed}", serialize_game(random_tree_game(seed, no_ties=False))))
    documents.append(("binary-6", serialize_game(binary_tree_game(6, seed=1))))
    documents.append(("entangled-binary-6", serialize_game(binary_tree_game(6, seed=2, entangled=True))))
    documents.append(("square-6", serialize_game(square_normal_form(6, seed=3))))
    return documents + malformed_games()


def setups() -> list[tuple[str, str]]:
    documents = [("spacetime_example.json", (FIXTURES / "spacetime_example.json").read_text())]
    documents += [(f"random-setup-{seed}", serialize_setup(random_setup(seed))) for seed in range(16)]
    return documents + malformed_setups()


def digests() -> dict[str, str]:
    """Command line -> SHA-256 over every corpus document's name, exit code, stdout and stderr."""
    result = {}
    for commands, corpus in ((GAME_COMMANDS, games()), (SETUP_COMMANDS, setups())):
        for argv in commands:
            digest = hashlib.sha256()
            for name, text in corpus:
                code, out, err = pte(argv, text)
                digest.update(f"{name}\0{code}\0{out}\0{err}\0".encode())
            result[" ".join(argv)] = digest.hexdigest()
    return result


def test_outputs_match_the_recorded_digests():
    assert digests() == DIGESTS
