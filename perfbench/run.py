#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the benchmark package (perfbench/,
which compiles the simulator from src/) into .bench_build/perfbench on first
use, runs the measuring program, checks that its result line carries exactly
the metrics BENCHMARK.json declares, and forwards its output.  The last line
printed is the JSON result.  Traced runs (--trace 1) also write their spans
to .bench_build/spans/<workload>-seed<n>.json.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"] for m in group}, {w["name"] for w in spec["workloads"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    metrics, workloads = declared_metrics(args.trace == 1)
    if args.workload not in workloads:
        fail("unknown workload %r" % args.workload)
    build()

    command = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("benchmark did not finish: %s" % err)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("benchmark printed no result line (exit code %d)" % done.returncode)
    if set(result.get("metrics", {})) != metrics:
        fail("result metrics differ from BENCHMARK.json")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
