#!/usr/bin/env python3
"""Perf-regression gate for the engine's fast paths.

Runs (or parses) the bench_micro_engine google-benchmark JSON and checks
that each gated fast path keeps its speedup over its slow-path
reference on the same machine (which factors out host speed):

  speedup = real_time(reference) / real_time(fast path)

Gated pairs:
  - vectorized group-by scan vs the interpreted row-at-a-time oracle
    (BM_PartitionGroupBy vs BM_PartitionGroupByInterpreted)
  - k-ary tree-merge coordinator fold vs the flat fan-in fold
    (BM_CoordinatorMergeTreeRoot vs BM_CoordinatorMergeFlat): the
    planner's tree topology must keep moving ~(fan-out / fan-in) of the
    coordinator's fold work onto the aggregator servers

The gate fails when a measured speedup drops below the absolute floor
or below (1 - tolerance) of the committed baseline speedup.

One run of a microbenchmark on a shared host is noise-bound (the tree
root fold has read 5.18x, 7.13x and 7.34x in three runs against a 5.20x
bound), so --bench runs each gated benchmark REPETITIONS times and the
gate compares the medians. A --json file without median aggregates
(a single-repetition run) is gated on its plain iteration results.

Usage:
  check_perf_regression.py --json build/BENCH_micro_engine.json \
      [--baseline bench/BENCH_micro_engine.baseline.json]
  check_perf_regression.py --bench build/bench/bench_micro_engine \
      --out /tmp/BENCH_micro_engine.json [--baseline ...]

With --bench, the benchmark binary is run first (filtered to the gated
benchmarks) to produce the JSON. Exits 0 on pass, 1 on regression, 2 on
missing/unparseable inputs.
"""

import argparse
import json
import os
import subprocess
import sys

GATED = [
    # (fast-path benchmark, slow-path reference benchmark)
    ("BM_PartitionGroupBy", "BM_PartitionGroupByInterpreted"),
    ("BM_CoordinatorMergeTreeRoot", "BM_CoordinatorMergeFlat"),
]


REPETITIONS = 5


def load_benchmarks(path):
    """Returns {benchmark name: result}: the median aggregate of each
    benchmark when the run was repeated, its single iteration otherwise."""
    with open(path) as f:
        doc = json.load(f)
    iterations = {}
    medians = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") == "iteration":
            iterations[bench["name"]] = bench
        elif bench.get("aggregate_name") == "median":
            medians[bench["run_name"]] = bench
    iterations.update(medians)
    return iterations


def run_bench(binary, out_path):
    bench_filter = "|".join(
        "^%s$" % name for pair in GATED for name in pair)
    cmd = [
        binary,
        "--benchmark_filter=%s" % bench_filter,
        "--benchmark_out=%s" % out_path,
        "--benchmark_out_format=json",
        "--benchmark_min_time=0.2",
        "--benchmark_repetitions=%d" % REPETITIONS,
        "--benchmark_report_aggregates_only=true",
    ]
    env = dict(os.environ, SCALEWALL_BENCH_QUICK="1")
    print("+ %s" % " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, env=env)
    if proc.returncode != 0:
        print("benchmark binary failed (exit %d)" % proc.returncode)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="existing benchmark JSON to check")
    parser.add_argument("--bench", help="bench_micro_engine binary to run")
    parser.add_argument("--out", default="BENCH_micro_engine.json",
                        help="JSON output path when running --bench")
    parser.add_argument("--baseline",
                        default=os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench",
                                             "BENCH_micro_engine.baseline.json"),
                        help="committed baseline with expected speedups")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional regression vs baseline")
    args = parser.parse_args()

    if args.bench:
        run_bench(args.bench, args.out)
        json_path = args.out
    elif args.json:
        json_path = args.json
    else:
        parser.error("one of --json or --bench is required")

    try:
        results = load_benchmarks(json_path)
    except (OSError, ValueError) as e:
        print("cannot read %s: %s" % (json_path, e))
        return 2
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print("cannot read baseline %s: %s" % (args.baseline, e))
        return 2

    failures = []
    for vec_name, interp_name in GATED:
        if vec_name not in results or interp_name not in results:
            failures.append("missing benchmark results for %s / %s"
                            % (vec_name, interp_name))
            continue
        vec = results[vec_name]
        interp = results[interp_name]
        if vec.get("time_unit") != interp.get("time_unit"):
            failures.append("%s and %s use different time units"
                            % (vec_name, interp_name))
            continue
        speedup = interp["real_time"] / vec["real_time"]
        base = baseline.get(vec_name, {})
        floor = base.get("min_speedup", 1.0)
        expected = base.get("speedup_vs_interpreted")
        required = floor
        if expected is not None:
            required = max(required, expected * (1.0 - args.tolerance))
        status = "PASS" if speedup >= required else "FAIL"
        print("%s: %s %.2fx vs interpreted (required >= %.2fx, "
              "baseline %s)" %
              (status, vec_name, speedup, required,
               "%.2fx" % expected if expected is not None else "n/a"))
        if speedup < required:
            failures.append(
                "%s speedup %.2fx below required %.2fx"
                % (vec_name, speedup, required))

    if failures:
        for f in failures:
            print("FAIL: %s" % f)
        return 1
    print("perf regression gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
