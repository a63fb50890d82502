#!/usr/bin/env python3
"""Builds the advisor from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles the advisor
libraries from the checkout) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the driver, and passes its output through.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The traced run also writes its spans to
<build dir>/traces/<workload>.jsonl (the latest traced run of each
workload; one file can reach tens of MB). The exit code is nonzero
when the sources are missing, the build fails, a correctness check
fails, or the output does not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir, deadline):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd, deadline, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", build_dir, "-j", jobs], deadline, "build")


def run_step(cmd, deadline, what):
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(what + " timed out")
    if r.returncode != 0:
        fail(what + " failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("advisor sources not found next to perfbench/ "
             "(run from the root of a source checkout)")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir, time.monotonic() + BUILD_TIMEOUT_S)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(trace_dir, args.workload + ".jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail("driver ran past %d s" % RUN_BUDGET_S)
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result (exit code %d)" % r.returncode)

    # The result must carry exactly the metrics BENCHMARK.json names.
    listed = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatches %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(k for k in want if k in got and got[k] != want[k])))
    print(lines[-1])
    sys.stdout.flush()
    if r.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
