#!/usr/bin/env python3
"""Build and run the SiEVE end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library with the repository's own CMake Release build under .bench_build/;
later runs rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero, without
a result line, when the sources are missing, the build fails or the run
fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("camera_encode", "fleet_ingest", "restart_query")
BUILD_ROOT = ".bench_build"
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store-hours", type=float, default=0.0,
                        help="restart_query: hours of history per camera")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("e2ebench: no SiEVE sources next to the benchmark", file=sys.stderr)
        return 2

    build_dir = os.path.join(root, BUILD_ROOT, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "sieve_e2ebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 3

    work_dir = os.path.join(root, BUILD_ROOT, "runs", str(os.getpid()))
    cmd = [os.path.join(build_dir, "sieve_e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.store_hours > 0:
        cmd += ["--store-hours", repr(args.store_hours)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out = proc.stdout.decode()
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(out)
        print("e2ebench: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return 5
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
