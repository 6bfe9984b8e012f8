#!/usr/bin/env python3
"""Build and run the nggcs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call in a checkout configures and builds perfbench/ (which
compiles the stack from src/) under .bench_build/perfbench; later calls
only let CMake confirm the build is current. Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_gcs")
PLAIN_BINARY = os.path.join(BUILD_DIR, "perfbench_gcs_plain")
RUN_TIMEOUT_S = 170
SIM_WORKLOADS = ["abcast_pipeline", "gbcast_mix", "leader_crash"]


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "stack.hpp")):
        sys.exit("perfbench: the nggcs sources (src/) are not in this checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout; concurrent runs wait for it.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed")


def run_binary(args, binary=BINARY):
    """Run the benchmark binary; its stdout passes through unchanged."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout


def selftest():
    code, out = run_binary(["--selftest"])
    sys.stdout.write(out)
    failures = 0 if code == 0 else 1
    # The counting allocator must not change what the stack does: both
    # binaries give the same virtual-time outcome for the same seed.
    print("counting allocator leaves virtual time unchanged")
    for workload in SIM_WORKLOADS:
        args = ["--virtual", workload, "--seed", "11"]
        outcomes = [json.loads(run_binary(args, b)[1].strip().splitlines()[-1])
                    for b in (BINARY, PLAIN_BINARY)]
        same = outcomes[0] == outcomes[1] and not outcomes[0]["error"]
        failures += 0 if same else 1
        print("  %s %s: counting and plain binaries agree (digest %s)"
              % ("ok  " if same else "FAIL", workload, outcomes[0]["digest"]))
    # BENCHMARK.json declares exactly the metrics the binary reports.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    catalog = json.loads(run_binary(["--metrics"])[1])
    for kind in ("end_to_end", "per_layer"):
        same = [[m["name"], m["unit"]] for m in declared[kind]] == catalog[kind]
        failures += 0 if same else 1
        print("  %s BENCHMARK.json %s metrics match the binary"
              % ("ok  " if same else "FAIL", kind))
    print("PASS" if failures == 0 else "FAIL")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")
    build()
    if args.selftest:
        return selftest()
    code, out = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
