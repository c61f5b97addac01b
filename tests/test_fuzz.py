"""Seeded mutations of every fixture, run through every `pte` command.

Whatever the document, a command returns one of the documented exit
codes, lets no exception escape and writes only `error` lines to
standard error, and none takes seconds. The mutations are deterministic,
so a failure names a reproducible (fixture, seed) pair.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
import time

import pytest

from ptesolver.cli import run

from conftest import FIXTURES

COMMANDS = (
    ("validate", "-"),
    ("canonicalize", "-"),
    ("solve", "-"),
    ("solve", "--quiet", "-"),
    ("spacetime-build", "-"),
    ("spacetime-build", "--game-only", "-"),
    ("export-dot", "-"),
    ("export-dot", "--step", "1", "-"),
    ("oracle-compare", "-"),
)
# Values a mutation may put anywhere: wrong types, bad numbers, huge exponents.
ODD_VALUES = (
    None, True, 0, -1, 1.5, 10**40, "", "x", "1/0", "0.1", "-2/3", "1e5000", "1e10000000",
    "0e99999999", "1e-4301", [], {}, [[]], {"x": 1},
)
HUGE_NUMBERS = ("1e5000", "1e10000000", "-2.5e-10000000", "1e4299", "1e-4299")
MUTATIONS_PER_FIXTURE = 60
SECONDS_PER_COMMAND = 2.0


def _slots(value, path=()):
    """Every (container path, key) in a JSON value, depth first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _slots(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, rng: random.Random):
    """One random edit of a JSON value in place: replace, swap in a sibling string, drop or copy."""
    slots = list(_slots(doc))
    if not slots:
        return
    path, key = rng.choice(slots)
    container = _at(doc, path)
    strings = [_at(doc, p)[k] for p, k in slots if isinstance(_at(doc, p)[k], str)]
    edit = rng.random()
    if edit < 0.25:
        container[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    elif edit < 0.65 and strings:
        container[key] = rng.choice(strings)
    elif edit < 0.8:
        del container[key]
    elif isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    else:
        container[rng.choice(strings) if strings else "extra"] = copy.deepcopy(container[key])


def _enlarge_a_number(doc, rng: random.Random) -> None:
    """Replace one payoff or coordinate with a huge or boundary-sized exponent."""
    numbers = [
        (path, key)
        for path, key in _slots(doc)
        if path and path[-1] in ("payoffs", "coords") or len(path) == 2 and path[0] == "utilities"
    ]
    path, key = rng.choice(numbers)
    _at(doc, path)[key] = rng.choice(HUGE_NUMBERS)


def mutated_documents(name: str):
    """(seed, text) pairs: mostly JSON edits, some huge numbers, some text cuts and splices."""
    text = (FIXTURES / name).read_text()
    for seed in range(MUTATIONS_PER_FIXTURE):
        rng = random.Random(f"{name}:{seed}")
        if seed % 8 == 7:
            cut = rng.randrange(len(text))
            yield seed, text[:cut] + rng.choice(["", "}", "]", ",", '"', "\x00", "1e5000"]) + text[cut + 1 :]
            continue
        doc = json.loads(text)
        if seed % 8 == 3:
            _enlarge_a_number(doc, rng)
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(doc, rng)
        yield seed, json.dumps(doc)


def _run(argv: tuple[str, ...], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        sys.stdin = saved
    assert time.monotonic() - start < SECONDS_PER_COMMAND, f"pte {' '.join(argv)} ran too long"
    return code, out.getvalue(), err.getvalue()


def _check(code: int, err: str, context: str) -> None:
    assert code in (0, 1, 2, 3), context
    assert all(line.startswith("error") for line in err.splitlines()), f"{context}: {err[:500]}"


@pytest.mark.parametrize("fixture", sorted(path.name for path in FIXTURES.glob("*.json")))
def test_mutated_fixture_through_every_command(fixture):
    for seed, text in mutated_documents(fixture):
        results = {}
        for argv in COMMANDS:
            results[argv] = code, out, err = _run(argv, text)
            _check(code, err, f"{fixture} seed {seed}: pte {' '.join(argv)}")
        built = results[("spacetime-build", "--game-only", "-")]
        games = [built[1]] if built[0] == 0 else []
        if results[("validate", "-")][0] == 0:
            # A game that validates must canonicalize, and then solve and render.
            canonical = results[("canonicalize", "-")]
            assert canonical[0] == 0, f"{fixture} seed {seed}: validates but canonicalize says {canonical[2]}"
            games.append(canonical[1])
        for game in games:
            for follow, codes in ((("solve", "-"), (0, 2, 3)), (("export-dot", "-"), (0,))):
                code, _, err = _run(follow, game)
                assert code in codes, f"{fixture} seed {seed}: pte {' '.join(follow)} of a valid game: {err}"


def test_search_counterexample_exits_cleanly():
    code, _, err = _run(("search-counterexample", "--max-rows", "2", "--max-cols", "2"), "")
    _check(code, err, "pte search-counterexample")
