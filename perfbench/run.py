#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark program (perfbench/CMakeLists.txt)
into .bench_build/perfbench, runs one workload in one process, and passes
its report through.  The last line of standard output is the JSON
result: {"correct", "attempted", "failed", "metrics"}.  Exits non-zero,
without a result, when the build fails, the program fails, or its result
line is malformed.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("characterize", "tune_web", "tune_fleet", "replay_warm")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build only the library and the program."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not any(os.path.exists(os.path.join(BUILD_DIR, name))
               for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    command = [program, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", WORK_DIR,
               "--reference", os.path.join("perfbench", "reference.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})",
              file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
