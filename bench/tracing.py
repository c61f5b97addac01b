"""Span recorder for the traced benchmark run, installed from outside the package.

`Recorder.install` replaces every public function of the layer modules
with a timing wrapper wherever callers look it up: the defining module's
attribute and every name-level import of it in the other package
modules (`from .game import descendants` in `solver`, for example). A
span is (name, start, end, parent span, document id); spans stay in
memory in flat arrays and are written out once, when the run ends.
Counters sit at the same boundaries as the spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps
from typing import Callable

LAYERS = ("cli", "formats", "game", "solver", "spacetime")
DOC_ROOT = "bench.doc"
ORACLE = "oracle.naive_solve"

# Per-layer metric -> span whose self time it reports (seconds per document).
SELF_TIMES = {
    "solver.solve.s": "solver.solve",
    "solver.reached_infosets.s": "solver.reached_infosets",
    "solver.maximin.s": "solver.maximin",
    "game.validate_game.s": "game.validate_game",
    "game.canonicalize.s": "game.canonicalize",
    "game.descendants.s": "game.descendants",
    "formats.parse_game.s": "formats.parse_game",
    "formats.parse_setup.s": "formats.parse_setup",
    "formats.serialize_game.s": "formats.serialize_game",
    "formats.trace_to_jsonable.s": "formats.trace_to_jsonable",
    "formats.export_dot.s": "formats.export_dot",
    "spacetime.validate_setup.s": "spacetime.validate_setup",
    "spacetime.build_game.s": "spacetime.build_game",
}
# Per-layer metric -> span whose calls it counts (calls per document).
CALLS = {
    "game.descendants.calls": "game.descendants",
    "spacetime.validate_setup.calls": "spacetime.validate_setup",
    "spacetime.total_order.calls": "spacetime.total_order",
    "spacetime.triangle_rows.calls": "spacetime.triangle_rows",
}
# Per-layer metrics counted by the hooks below (per document).
COUNTS = ("solver.steps", "solver.reached_cells", "game.canonicalize.pruned_nodes")


def _count_solve(recorder: "Recorder", args: tuple, result) -> None:
    recorder.count("solver.steps", len(result.steps))
    recorder.count("solver.reached_cells", sum(len(state.reached) for state in result.steps))
    recorder.count("solver.eliminated", sum(len(state.preempted) for state in result.steps))
    recorder.count("solver.examined", sum(len(state.surviving) for state in result.steps))


def _count_canonicalize(recorder: "Recorder", args: tuple, result) -> None:
    recorder.count("game.canonicalize.pruned_nodes", len(args[0].choice_nodes) - len(result.choice_nodes))


HOOKS = {"solver.solve": _count_solve, "game.canonicalize": _count_canonicalize}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.doc = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._doc_id = -1
        self.counters: dict[str, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.doc.append(self._doc_id)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, value: float) -> None:
        """Add to a counter of the document in progress."""
        if self._doc_id >= 0:
            self.counters[name] += value

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._intern(name)
        hook = HOOKS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def run_document(self, doc_id: int, body: Callable[[], object]):
        """Run one document's command chain under a root span."""
        self._doc_id = doc_id
        index = self._enter(self._intern(DOC_ROOT))
        try:
            return body()
        finally:
            self._exit(index)
            self._doc_id = -1

    def install(self) -> None:
        """Wrap the public functions of every layer at every lookup site."""
        wrapped: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"ptesolver.{layer}"]
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[value] = self.wrap(f"{layer}.{attr}", value)
        for module_name, module in list(sys.modules.items()):
            if module_name == "ptesolver" or module_name.startswith("ptesolver."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(module, attr, wrapped[value])

    def dump(self, path) -> None:
        """One JSON header line, then the columns as raw native arrays in header order."""
        columns = [("name", self.name), ("parent", self.parent), ("doc", self.doc), ("start", self.start), ("end", self.end)]
        header = {"names": self.names, "spans": len(self.start), "columns": [[c, a.typecode] for c, a in columns]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, values in columns:
                values.tofile(handle)

    def per_layer(self, docs: int) -> tuple[dict[str, float], list[str]]:
        """Per-document layer metrics, and any span accounting problems.

        Self time is a span's duration minus its direct children's. Within
        a document the self times of all spans, the root's included, add
        up to the root's duration; the root's own share is harness glue
        between commands and must stay negligible, and no self time may
        be negative.
        """
        docs = max(docs, 1)
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += duration[i]
                root[i] = root[p]
        doc_root = self._ids.get(DOC_ROOT, -1)
        oracle = self._ids.get(ORACLE, -1)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        solve_time = oracle_time = 0.0
        oracle_calls = 0
        problems: list[str] = []
        for i in range(n):
            own = duration[i] - children[i]
            name = self.names[self.name[i]]
            if own < -1e-6:
                problems.append(f"span {name} has negative self time {own:.3g} s")
            if self.name[i] == oracle:
                oracle_time += duration[i]
                oracle_calls += 1
            if self.name[root[i]] != doc_root:
                continue
            if i == root[i]:
                if own > max(0.01 * duration[i], 1e-3):
                    problems.append(
                        f"document {self.doc[i]}: {own:.3g} s of {duration[i]:.3g} s is outside every layer span"
                    )
                continue
            self_time[name] += own
            calls[name] += 1
            if name == "solver.solve":
                solve_time += duration[i]

        metrics = {metric: self_time[span] / docs for metric, span in SELF_TIMES.items()}
        metrics["solver.solve.inclusive_s"] = solve_time / docs
        metrics["cli.self.s"] = sum(t for name, t in self_time.items() if name.startswith("cli.")) / docs
        metrics.update({metric: calls[span] / docs for metric, span in CALLS.items()})
        metrics.update({name: self.counters[name] / docs for name in COUNTS})
        examined = self.counters["solver.examined"]
        metrics["solver.eliminated_ratio"] = self.counters["solver.eliminated"] / examined if examined else 0.0
        solves = calls["solver.solve"]
        # Mean inclusive time of one solve over one naive_solve of the same documents.
        metrics["solver.vs_oracle"] = (
            (solve_time / solves) / (oracle_time / oracle_calls) if solves and oracle_calls else 0.0
        )
        return metrics, problems
