"""Benchmark worker: runs one workload's documents in process and checks them.

Started by `run.py` as the single child process of a run. For each
document it generates the input from the document's seed, computes the
expected outputs (untimed), times the whole `pte` command chain through
`ptesolver.cli.run` with stdin and stdout held in memory, and compares
every exit code and output byte for byte. Untraced, it then times one
fresh interpreter importing `ptesolver.cli`, so that the set-up samples
are spread over the run as evenly as the documents. Traced, it writes
the spans to `.bench_out/` of the checkout. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import ORACLE, Recorder


def run_chain(cli, doc: workloads.Document) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of every command of the document's chain."""
    outputs: list[tuple[int, str, str]] = []
    previous = ""
    for command in doc.chain:
        sys.stdin = io.StringIO(previous if command.stdin_from_previous else doc.text)
        sys.stdout = out = io.StringIO()
        sys.stderr = err = io.StringIO()
        try:
            code = cli.run(list(command.argv))
        finally:
            sys.stdin, sys.stdout, sys.stderr = sys.__stdin__, sys.__stdout__, sys.__stderr__
        previous = out.getvalue()
        outputs.append((code, previous, err.getvalue()))
    return outputs


IMPORT_PROBE = "import time\nstart = time.perf_counter()\nimport ptesolver.cli\nprint(repr(time.perf_counter() - start))\n"


def import_seconds(root: Path) -> float:
    """Wall time of `import ptesolver.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env, cwd=root, timeout=60)
    if done.returncode != 0:
        raise SystemExit(f"importing ptesolver.cli failed:\n{done.stderr[-2000:]}")
    return float(done.stdout)


def mismatch(doc: workloads.Document, outputs, expected) -> str | None:
    for command, (code, text, errors), (want_code, want_text) in zip(doc.chain, outputs, expected):
        name = " ".join(command.argv)
        if errors:
            return f"pte {name}: unexpected standard error {errors[:200]!r}"
        if code != want_code:
            return f"pte {name}: exit code {code}, expected {want_code}"
        if text != want_text:
            return f"pte {name}: output differs from the oracle ({len(text)} vs {len(want_text)} bytes)"
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", required=True, choices=("full", "smoke"))
    parser.add_argument("--seconds", type=float, default=0.0, help="keep starting documents until this much time has passed")
    parser.add_argument("--min-docs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(args.root / "src"))
    import ptesolver
    from ptesolver import cli, oracle

    if not Path(ptesolver.__file__).resolve().is_relative_to(args.root.resolve()):
        raise SystemExit(f"imported ptesolver from {ptesolver.__file__}, not from the checkout")

    recorder = Recorder() if args.trace else None
    naive_solve = recorder.wrap(ORACLE, oracle.naive_solve) if recorder else oracle.naive_solve
    if recorder:
        recorder.install()

    size = workloads.SIZES[args.workload][args.size]
    seconds: list[float] = []
    imports: list[float] = []
    failures: list[str] = []
    seen: set[int] = set()
    began = time.perf_counter()
    index = 0
    while index < args.min_docs or time.perf_counter() - began < args.seconds:
        doc = workloads.generate(args.workload, args.seed, index, size)
        try:
            if hash(doc.text) in seen:
                raise AssertionError("document repeated within the worker")
            seen.add(hash(doc.text))
            expected = workloads.expect(args.workload, doc, naive_solve)
            start = time.perf_counter()
            try:
                if recorder:
                    outputs = recorder.run_document(index, lambda: run_chain(cli, doc))
                else:
                    outputs = run_chain(cli, doc)
            finally:
                seconds.append(time.perf_counter() - start)
            problem = mismatch(doc, outputs, expected)
        except Exception:  # one broken document must not hide the others
            problem = traceback.format_exc(limit=3)
        if problem:
            failures.append(f"document {index}: {problem}")
        if not recorder:
            imports.append(import_seconds(args.root))
        index += 1

    result = {
        "docs": index,
        "seconds": seconds,
        "failures": failures,
        "imports": imports,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder:
        result["layers"], result["span_problems"] = recorder.per_layer(len(seconds))
        spans = args.root / ".bench_out" / f"spans-{args.workload}-{args.size}.bin"
        spans.parent.mkdir(exist_ok=True)
        recorder.dump(spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
