#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--expect-digest HEX]

Run from the repository root. The first run configures and builds
perfbench/ (the library from src/, the elivagar_worker example and
elv_perfbench) into .bench_build/; later runs rebuild incrementally.
Build output goes to stderr; stdout carries the program's metric lines and
ends with one JSON line. For the default seed the program also compares
the ranking digest with the one recorded in perfbench/reference.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "elv_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "elv_perfbench", "elivagar_worker"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(reference["workloads"]))
    parser.add_argument("--seed", type=int,
                        default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--expect-digest",
                        help="ranking digest the first op must produce")
    args = parser.parse_args()

    build()
    expect = args.expect_digest
    if (expect is None and not args.smoke
            and args.seed == reference["default_seed"]):
        expect = reference["workloads"][args.workload]["ranking_digest"]
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out", os.path.join(ROOT, ".bench_build", "out")]
    if args.smoke:
        command.append("--smoke")
    if expect:
        command += ["--expect-digest", expect]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
