#!/usr/bin/env python3
"""Build and run the powervar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a powervar checkout.  The first run configures and
builds the library and the benchmark program (Release) into .bench_build/;
later runs rebuild only what changed.  Build output goes to stderr.

The program, powervar_bench, prints a machine-shape header and one line per metric; this
script passes those through, checks the reported metrics against
BENCHMARK.json (every end-to-end metric with --trace 0, every per-layer
metric with --trace 1; a per-layer metric a workload does not exercise is
reported as 0 and listed as n/a), and prints the result as the last line
of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "powervar_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_step(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) in this directory; "
             "run from the root of a powervar checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD, "--target", "powervar_bench",
              "-j", jobs], BUILD_TIMEOUT_S)


def source_identity():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def main():
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    commit, digest = source_identity()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit, "--source", digest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout, end="")
        fail(f"powervar_bench exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line of powervar_bench's output is not JSON: {lines[-1]!r}")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    reported = result["metrics"]
    metrics = {}
    for m in declared:
        name = m["name"]
        if name not in reported:
            if not args.trace:
                fail(f"end-to-end metric {name} was not reported")
            print(f"# n/a on {args.workload}: {name} (reported as 0)")
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
            continue
        got = reported.pop(name)
        if got["unit"] != m["unit"]:
            fail(f"metric {name} reported in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[name] = got
    if reported:
        fail(f"metrics not declared in BENCHMARK.json: {sorted(reported)}")
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
