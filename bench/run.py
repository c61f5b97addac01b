"""ptesolver benchmark: `pte` command chains on four seeded workloads.

    python3 bench/run.py --workload tree-deep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One client, one worker process, one thread: the worker (`worker.py`)
runs documents in a closed loop until `--seconds` have passed, every
document a fresh input derived from the workload seed. With `--trace 0`
the last line of standard output is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
a traced run. `--smoke` runs every workload on its smallest inputs, both
untraced and traced, and exits 1 if any output is wrong. See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TAIL_BEYOND = 10  # samples the reported tail percentile must have above it
WORKER_TIMEOUT = 160


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, size: str, seconds: float, min_docs: int, trace: bool) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), "--workload", workload,
        "--seed", str(seed), "--size", size, "--seconds", repr(seconds), "--min-docs", str(min_docs),
    ]
    if trace:
        command.append("--trace")
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} ran past {WORKER_TIMEOUT} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(seconds: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(seconds)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < 0:
        raise BenchError(f"{len(ordered)} documents cannot give a tail with {TAIL_BEYOND} samples beyond it")
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    result = worker(workload, seed, "full", seconds, TAIL_BEYOND + 1, trace=False)
    times = result["seconds"]
    tail_value, tail_pct = tail(times)
    print(f"{workload}: {result['docs']} documents, doc_tail_s is p{tail_pct:.1f} of {len(times)} samples, "
          f"failed_ratio {len(result['failures']) / result['docs']}")
    metrics = {
        "docs_per_s": (len(times) / sum(times), "1/s"),
        "doc_p50_s": (statistics.median(times), "s"),
        "doc_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(result["imports"]), "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    return metrics, [result]


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Half the time untraced, then the same documents again traced."""
    plain = worker(workload, seed, "full", seconds / 2, 2, trace=False)
    traced = worker(workload, seed, "full", 0.0, plain["docs"], trace=True)
    metrics = {name: (value, unit_of(name)) for name, value in traced["layers"].items()}
    # Same documents both times, so the ratio of total times is the ratio of docs_per_s.
    metrics["trace_overhead_ratio"] = (sum(plain["seconds"]) / sum(traced["seconds"]), "ratio")
    print(f"{workload}: {plain['docs']} documents untraced, then the same {traced['docs']} traced")
    return metrics, [plain, traced]


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("ratio") or name.endswith("vs_oracle") else "count"


def smoke() -> int:
    """Every workload at its smallest size, untraced and traced, outputs checked."""
    bad = 0
    for workload in workloads.SIZES:
        for trace in (False, True):
            began = time.perf_counter()
            result = worker(workload, 0, "smoke", 0.0, 5, trace)
            problems = result["failures"] + result.get("span_problems", [])
            bad += bool(problems)
            state = "ok" if not problems else "FAILED: " + "; ".join(problems[:3])
            kind = "traced" if trace else "untraced"
            print(f"smoke {workload} {kind}: {result['docs']} documents in {time.perf_counter() - began:.2f} s, {state}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "ptesolver" / "cli.py").is_file():
        print(f"error: no ptesolver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        measure = per_layer if args.trace else end_to_end
        metrics, results = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [f for r in results for f in r["failures"]]
    span_problems = [p for r in results for p in r.get("span_problems", [])]
    for problem in failures + span_problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not failures and not span_problems,
        "attempted": sum(r["docs"] for r in results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
