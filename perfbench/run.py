#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload read_paper|write_churn|stream_monitor|all \
        --seed N --seconds S --trace 0|1

Builds the ctdb library, the unmodified ctdb_server and the benchmark's
load generator (perfbench/loadgen) from the sources of this checkout into
.bench_build/perfbench, then runs the load generator. Everything the run
writes stays under .bench_build/. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is non-zero when the build fails, an answer is wrong or an operation
fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("read_paper", "write_churn", "stream_monitor", "all")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (a no-op when nothing changed) and rebuilds what changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ctdb sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
              "perfbench_loadgen", "ctdb_server"]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("build failed; see " + log_path)
    return (os.path.join(BUILD_DIR, "perfbench_loadgen"),
            os.path.join(BUILD_DIR, "ctdb_server", "ctdb_server"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    loadgen, server = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server-bin", server, "--work-dir", WORK_DIR]
    # The load generator and the servers it spawns share a fresh process
    # group, so whatever happens to it, no server outlives this script.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait()
    except BaseException:
        code = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
