"""Command-line interface.

One command per invocation; every command reads a document from a path
or standard input ("-") and writes results to standard output. Exit
codes for `solve` mirror the solver status: 0 unique, 2 empty fixpoint,
3 multiple survivors under ties. I/O, parse and validation problems exit
with 1 and a diagnostic on standard error.

Every command but `validate` checks a game's structure only and computes
none of the report's flags. Every command loads `formats`, `game` and
`solver`; only the commands that use them import `spacetime`
(`spacetime-build`) and `oracle` (`oracle-compare`,
`search-counterexample`), when they run.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache

from .formats import (
    _indented_json,
    _verdict,
    _write_trace,
    export_dot,
    game_to_jsonable,
    parse_game,
    parse_setup,
    serialize_game,
)
from .game import _structural_issues, canonicalize, validate_game
from .solver import EMPTY, MULTIPLE_WITH_TIES, solve

STATUS_EXIT = {EMPTY: 2, MULTIPLE_WITH_TIES: 3}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_valid_game(path: str):
    """Parse a game and check its structure only; the flags are `validate`'s."""
    game = parse_game(_read(path))
    errors = _structural_issues(game)
    if errors:
        for issue in errors:
            print(f"error {issue.code}: {issue.message}", file=sys.stderr)
        raise SystemExit(1)
    return game


def _cmd_validate(args: argparse.Namespace) -> int:
    game = parse_game(_read(args.input))
    report = validate_game(game)
    print(
        _indented_json(
            {
                "errors": [
                    {"code": i.code, "message": i.message, "ids": list(i.ids)} for i in report.errors
                ],
                # Nothing is only a warning: the key stays, always empty, for readers of the report.
                "warnings": [],
                "is_canonical": report.is_canonical,
                "has_perfect_recall": report.has_perfect_recall,
                "has_ties": report.has_ties,
            }
        )
    )
    return 0 if report.ok else 1


def _cmd_canonicalize(args: argparse.Namespace) -> int:
    game = _load_valid_game(args.input)
    sys.stdout.write(serialize_game(canonicalize(game)))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    game = _load_valid_game(args.input)
    result = solve(game)
    if args.quiet:
        print(json.dumps(_verdict(game, result)))
    else:
        _write_trace(sys.stdout, game, result)
    return STATUS_EXIT.get(result.status, 0)


def _cmd_spacetime_build(args: argparse.Namespace) -> int:
    from .spacetime import SetupError, build_game, total_order

    setup = parse_setup(_read(args.input))
    try:
        game = build_game(setup)
    except SetupError as exc:
        for issue in exc.report.errors:
            print(f"error {issue.code}: {issue.message}", file=sys.stderr)
        return 1
    if args.game_only:
        sys.stdout.write(serialize_game(game))
    else:
        document = {
            "total_order": [point.id for point in total_order(setup)],
            "game": game_to_jsonable(game),
        }
        print(_indented_json(document))
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    game = _load_valid_game(args.input)
    result = solve(game)
    step = len(result.steps) - 1 if args.step is None else args.step
    sys.stdout.write(export_dot(game, result, step))
    return 0


def _cmd_oracle_compare(args: argparse.Namespace) -> int:
    from .oracle import naive_solve

    game = _load_valid_game(args.input)
    fast = solve(game)
    slow = naive_solve(game)
    if fast == slow:
        print(f"solver and oracle agree: status {fast.status}, {len(fast.steps)} steps")
        return 0
    print("solver and oracle diverge", file=sys.stderr)
    print(f"solver: {sorted(fast.fixpoint)} in {len(fast.steps)} steps", file=sys.stderr)
    print(f"oracle: {sorted(slow.fixpoint)} in {len(slow.steps)} steps", file=sys.stderr)
    return 1


def _cmd_search_counterexample(args: argparse.Namespace) -> int:
    from .oracle import search_empty_pte

    witness = search_empty_pte(max_rows=args.max_rows, max_cols=args.max_cols)
    if witness is None:
        print("no counterexample found in the search space", file=sys.stderr)
        return 2
    sys.stdout.write(serialize_game(witness))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pte",
        description="Compute Perfectly Transparent Equilibria of extensive-form "
        "games with imperfect information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game document and print the report")
    p.add_argument("input", help="game document path, or - for stdin")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("canonicalize", help="prune unreachable same-cell subtrees")
    p.add_argument("input", help="game document path, or - for stdin")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("solve", help="run the elimination and print the trace")
    p.add_argument("input", help="game document path, or - for stdin")
    p.add_argument("--quiet", action="store_true", help="print only the final status line")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "spacetime-build", help="build the game induced by a spacetime setup document"
    )
    p.add_argument("input", help="setup document path, or - for stdin")
    p.add_argument(
        "--game-only", action="store_true", help="emit just the game document, for piping"
    )
    p.set_defaults(func=_cmd_spacetime_build)

    p = sub.add_parser("export-dot", help="render one elimination step as DOT")
    p.add_argument("input", help="game document path, or - for stdin")
    p.add_argument("--step", type=int, default=None, help="step index (default: final step)")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("oracle-compare", help="cross-check the solver against the oracle")
    p.add_argument("input", help="game document path, or - for stdin")
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser(
        "search-counterexample", help="search small matrices for an empty fixpoint"
    )
    p.add_argument("--max-rows", type=int, default=3)
    p.add_argument("--max-cols", type=int, default=3)
    p.set_defaults(func=_cmd_search_counterexample)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def run(argv: list[str]) -> int:
    """Run one command; the cyclic collector is off until it returns.

    A command's data holds no reference cycles, so reference counting
    frees all of it, and a collection during the command would only walk
    live objects: the collector's state is put back as it was found.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        try:
            return args.func(args)
        except SystemExit as exc:
            return int(exc.code or 0)
        except (ValueError, OSError) as exc:
            # ParseError, NotCanonicalError and SetupError are ValueErrors.
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (RecursionError, MemoryError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
