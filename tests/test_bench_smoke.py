"""The benchmark's smoke mode runs and its output checks pass."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_bench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 8 and all(line.endswith("ok") for line in lines), done.stdout
