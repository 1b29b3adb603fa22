#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload short --seed 1 --seconds 20 --trace 0

The library and the harness are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
repository root).

An untraced run (--trace 0) is split into PROCESSES harness processes of equal
length, run one after another with the same seed. Each end-to-end metric
reported is the median over them, and attempted and failed ops are summed.
Each process gets its own memory placement from the machine. On a shared
virtual machine that placement moves a memory-bound number by tens of
percent from one process to the next, while it stays steady within a
process. So a median over processes measures the program, and a single
process would measure its placement. A traced run (--trace 1) is one
process; its per-layer numbers have no bound.

The output of the harness processes is passed through. The last line is the
result JSON. Before printing it, this script checks the metric names and
units against the ones BENCHMARK.json lists for the mode. --trace 0 must
report exactly the end_to_end list. --trace 1 reports the per_layer list; a
layer the workload does not run is filled in as 0.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 4
# Limit on all harness processes of one run together (the build excluded).
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    """Configures (once) and builds the harness; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench_harness"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench_harness"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_harness(cmd, timeout):
    """Runs one harness process; returns its result dict, or None on failure
    (after passing its output through)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return None
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
        return None
    try:
        return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except (IndexError, json.JSONDecodeError):
        fail("harness printed no result line")
        return None


def combine(results):
    """Median of each metric over the processes; attempted and failed add."""
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    print(f"\n-- median over {len(results)} processes --")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = statistics.median(values)
        combined["metrics"][name] = {"value": value, "unit": first["unit"]}
        print(f"  {name:16s} {value:14.6g} {first['unit']:5s}  of "
              + " ".join(f"{v:.6g}" for v in values))
    return combined


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"library sources not found under {ROOT}")
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    expected = expected_metrics(spec, args.trace)

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    try:
        harness = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    processes = 1 if args.trace else PROCESSES
    seconds = args.seconds / processes
    results = []
    for _ in range(processes):
        cmd = [str(harness), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(seconds),
               "--trace", str(args.trace),
               "--out-dir", str(build_dir / "traces")]
        result = run_harness(cmd, HARNESS_TIMEOUT_S / processes)
        if result is None:
            return 1
        results.append(result)
    result = results[0] if processes == 1 else combine(results)

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    unknown = {n: u for n, u in got.items() if expected.get(n) != u}
    missing = [n for n in expected if n not in got]
    if unknown or (missing and not args.trace):
        return fail(f"metrics differ from BENCHMARK.json: unknown or wrong "
                    f"unit {unknown}, missing {missing}")
    # A layer the workload does not run reports 0 (see WORKLOADS.md).
    result["metrics"] = {
        n: result["metrics"].get(n, {"value": 0, "unit": u})
        for n, u in expected.items()}
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
