#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/selfcheck.py [--workloads read_paper,...] [--runs 10]
                                   [--sets 2] [--seed0 1] [--trace 0]

Runs every workload `--runs` times per set, each run with another seed, for
`--sets` sets (set k uses seeds seed0 + k*runs ...). For each end-to-end
metric in BENCHMARK.json it prints the median and the spread of each set
(the distance between the first and third quartile as a share of the
median, quartiles as statistics.quantiles(values, n=4) gives them), and
fails when
  - a spread, except that of setup_s, exceeds the metric's bound, or
  - a later set's median is worse than the first set's by more than the
    bound.
It also warns where a spread exceeds a third of the bound. Each run's JSON
result and its per-operation detail lines are appended to
.bench_build/selfcheck.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    details = [line for line in lines[:-1] if line.startswith(("metric ", "sample "))]
    with open(os.path.join(ROOT, ".bench_build", "selfcheck.jsonl"), "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                            "result": result, "details": details}) + "\n")
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def worse(first, later, better):
    """Relative amount by which `later` is worse than `first`."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            walls = []
            for i in range(args.runs):
                seed = args.seed0 + k * args.runs + i
                result, wall = run_once(workload, seed, bench["run_seconds"],
                                        args.trace)
                walls.append(wall)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print("%s set %d: run wall median %.1f s, max %.1f s"
                  % (workload, k, statistics.median(walls), max(walls)))
            sets.append(values)
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            row = []
            first_median = None
            for k, values in enumerate(sets):
                s, med = spread(values[name])
                row.append("set%d median %.6g spread %.3f" % (k, med, s))
                if bound is None:
                    continue
                if name != "setup_s" and s > bound:
                    ok = False
                    row.append("FAIL spread > bound %.3f" % bound)
                elif s > bound / 3:
                    row.append("warn spread > bound/3")
                if first_median is None:
                    first_median = med
                elif worse(first_median, med, m["better"]) > bound:
                    ok = False
                    row.append("FAIL median worse than set0 by more than %.3f"
                               % bound)
            print("  %-28s %s" % (name, "; ".join(row)))
    print("selfcheck " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
