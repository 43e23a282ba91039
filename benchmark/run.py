#!/usr/bin/env python3
"""Runs one benchmark workload from the repository root.

    python3 benchmark/run.py --workload factorize --seed 7 --seconds 50 --trace 0

Builds this package (and through it the cacqr library) into .bench_build/
with CMake, then runs the workload in its own process with every CACQR_*
variable cleared from its environment (CACQR_TRACE_DIR is pointed into
.bench_build/), so tracing is off and the library runs its defaults.  The
measured values come back from the workload as JSON; this script names and
units them from BENCHMARK.json, prints one `name value unit` line per
metric, writes the full record to .bench_build/results/, and prints the
result object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones.
A per-layer metric whose layer is not on the workload's path (OFF_PATH)
is reported as 0 and listed under "off_path" in the results file.
Exits nonzero, without a result line, when the build or the workload
fails, and nonzero with "correct": false when an output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cacqr_bench"
WORKLOADS = ("factorize", "grid3d", "serve")  # grid3d: see README.md
RUN_TIMEOUT_S = 170

# core::factorize-layer metrics that the service path never reaches (its
# jobs go through the batched lane), and service metrics that the
# factorize workloads have no service for.
_FACTORIZE_ONLY = [
    "core.pad_ms", "grid.build_ms", "dist.scatter_ms", "core.sweep_ms",
    "dist.gather_q_ms", "dist.gather_r_ms", "core.strip_ms",
    "core.unattributed_ms", "core.pad_faults", "grid.build_faults",
    "dist.scatter_faults", "core.sweep_faults", "dist.gather_q_faults",
    "dist.gather_r_faults", "core.strip_faults", "core.gram_ms",
    "chol.cfr3d_ms", "dist.transpose_ms", "core.q_update_ms",
    "rt.fence_wait_ms",
]
_SERVE_ONLY = [
    "serve.submit_us_p50", "serve.queue_ms_p50", "serve.exec_ms_p50",
    "serve.unattributed_ms_p50", "serve.batch_size_mean",
    "serve.rounds_per_job", "serve.batched_share", "serve.reject_share",
]
OFF_PATH = {"factorize": _SERVE_ONLY, "grid3d": _SERVE_ONLY,
            "serve": _FACTORIZE_ONLY}


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD), "--target", "cacqr_bench",
            "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end" if kind == 0 else "per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: smoke-test sizes")
    args = parser.parse_args()

    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("CACQR_")}
    env["CACQR_TRACE_DIR"] = str(BUILD / "trace")  # stays in the checkout
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} exited {proc.returncode} without a result")
    raw = json.loads(lines[-1])

    metrics = {}
    off_path = []
    values = dict(raw["values"])
    for m in declared(args.trace):
        name = m["name"]
        if name in values:
            value = values.pop(name)
        elif name in OFF_PATH[args.workload]:
            value = 0.0
            off_path.append(name)
        else:
            fail(f"{args.workload} did not measure {name}")
        if value is None:
            fail(f"{args.workload} measured {name} as not a number")
        metrics[name] = {"value": value, "unit": m["unit"]}
    if values:
        fail(f"{args.workload} measured undeclared metrics {sorted(values)}")

    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size,
                  off_path=off_path, details=raw["details"])
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / (f"{args.workload}-seed{args.seed}-"
                          f"trace{args.trace}-{args.size}.json")
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    for name, m in metrics.items():
        note = "  # not on this workload's path" if name in off_path else ""
        print(f"{name:28s} {m['value']:16.6g} {m['unit']}{note}")
    print(json.dumps(result))
    if proc.returncode != 0 or not raw["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
