#!/usr/bin/env python3
"""Floor gate on the end-to-end benchmark, for CI.

Runs one ``campaign-fig1`` workload through ``benchmarks/e2e/run.py`` and
exits 1 unless the run is correct (``"correct": true`` on its last line)
and its ``instr_per_ref`` is at least half the median of the untraced
``campaign-fig1`` runs in the committed ``benchmarks/e2e/results/set_a.json``.
The factor is ×0.5 so that the gate trips on a gross slowdown or a wrong
result, not on a slower runner.  It is a floor, never a measurement.

Run from anywhere in the checkout::

    python3 benchmarks/e2e_floor.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "benchmarks" / "e2e" / "run.py"
COMMITTED = ROOT / "benchmarks" / "e2e" / "results" / "set_a.json"
WORKLOAD = "campaign-fig1"
FACTOR = 0.5


def committed_median() -> float:
    runs = json.loads(COMMITTED.read_text())["runs"]
    return statistics.median(
        run["metrics"]["instr_per_ref"]["value"] for run in runs
        if run["workload"] == WORKLOAD and not run["trace"])


def main() -> int:
    floor = FACTOR * committed_median()
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", WORKLOAD],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"e2e floor: run.py exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    value = result["metrics"]["instr_per_ref"]["value"]
    print(f"e2e floor: {WORKLOAD} instr_per_ref {value:.1f}, floor "
          f"{floor:.1f} ({FACTOR} x the committed median), correct "
          f"{result['correct']}")
    if not result["correct"]:
        print(f"e2e floor: {result['failed']} of {result['attempted']} ops "
              f"failed", file=sys.stderr)
        return 1
    if value < floor:
        print("e2e floor: instr_per_ref is below the floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
