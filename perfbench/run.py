#!/usr/bin/env python3
"""Builds and runs the scalewall end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload socket_scan|socket_fanout|sim_mixed \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs rebuild incrementally. Each run
is one fresh process of the benchmark binary. stdout ends with the
binary's JSON result line; build output goes to stderr. See
perfbench/NOTES.md for what is measured and why.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("socket_scan", "socket_fanout", "sim_mixed")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd):
    """Runs a build step with its output on stderr; dies on failure."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        die(f"build step failed: {' '.join(cmd)}")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no scalewall sources next to perfbench/ (expected src/)")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd)
    run_logged(["cmake", "--build", BUILD_DIR, "--target", target,
                "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD_DIR, target)


def source_digest():
    """sha256 over the benchmarked sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests], cwd=ROOT).returncode)
    if args.workload is None:
        die("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    info = {
        "run_info": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "commit": commit(), "source_digest": source_digest(),
        }
    }
    print(json.dumps(info), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The benchmark is stopped and reaped however this script ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        sys.stderr.write(stderr)
        die(f"run exceeded {RUN_TIMEOUT_S} s", code=1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    try:
        final = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        die("the benchmark printed no result", code=1)
    expected = declared_metrics(args.trace)
    if expected is not None and set(final["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("metrics differ from BENCHMARK.json: "
            f"{sorted(set(final['metrics']) ^ expected)}", code=1)
    sys.stdout.write(stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
