#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload run.py accepts, untraced
and traced, at the tiny size must pass its output check and print every
metric that BENCHMARK.json declares for that mode, with its declared unit.

    python3 benchmark/tests/smoke_test.py      (from any directory)

The first run builds the benchmark into .bench_build/, which can take a
few minutes.  Exits 0 when every run passed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# run.py's workloads: BENCHMARK.json runs all but grid3d (see README.md).
WORKLOADS = ("factorize", "grid3d", "serve")


def check_run(workload, trace, declared):
    """Returns a list of problems with one tiny run (empty when it passed)."""
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-1500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("output check failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')}")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(want) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a number")
        elif trace == 0 and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not > 0")
        if not any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
                   for line in lines[:-1]):
            problems.append(f"{name}: no '{name} <value> {unit}' line")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_run(workload, trace, spec[kind])
            status = "ok" if not problems else "FAILED"
            print(f"{workload:10s} trace={trace}: {status}")
            for p in problems:
                print(f"    {p}")
            failed += bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
