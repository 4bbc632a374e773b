#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two sets of runs of one build, each run with its own seed, and prints
for every end-to-end metric of every workload:

  * the spread of each set: the distance between the first and third
    quartiles (statistics.quantiles(values, n=4)) as a share of the median;
  * the shift of the second set's median against the first, in the metric's
    worse direction, as a share of the first median;

both against the metric's bound, and whether the share of failed operations
is identical in the two sets. Exits 1 if any spread (setup_s excepted) or
shift exceeds its bound, or the failed shares differ.

Run from the repository root:

    python3 e2ebench/steadiness.py                      # 2 sets x 10 runs
    python3 e2ebench/steadiness.py --runs 5 --sets 1 --workloads tiny-inorder
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(argv)} reported correct=false:\n{proc.stderr[-2000:]}")
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_shift(first, second, better):
    m1, m2 = statistics.median(first), statistics.median(second)
    change = (m2 - m1) / m1 if m1 else float("inf")
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for _ in range(args.runs):
                result, wall = run_once(bench["command"], workload, seed,
                                        bench["run_seconds"])
                values = " ".join(f"{m}={v['value']:.4g}"
                                  for m, v in result["metrics"].items())
                print(f"  {workload} seed {seed} ({wall:.1f} s): {values}", file=sys.stderr)
                results.append(result)
                seed += 1
            sets.append(results)
        print(f"\n{workload}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        print(f"  failed share per set: {shares}")
        if len(set(shares)) != 1:
            ok = False
        print(f"  {'metric':<14}{'median':>14}{'spread':>9}{'shift':>9}{'bound':>7}")
        for m in metrics:
            per_set = [[r["metrics"][m["name"]]["value"] for r in rs] for rs in sets]
            spreads = [spread(v) for v in per_set]
            shift = worse_shift(per_set[0], per_set[1], m["better"]) if len(sets) == 2 else 0.0
            flag = ""
            if m["name"] != "setup_s" and max(spreads) > m["bound"]:
                flag += " SPREAD"
            if shift > m["bound"]:
                flag += " SHIFT"
            if max(spreads) > m["bound"] / 3 and m["name"] != "setup_s":
                flag += " (spread above a third of the bound)"
            ok = ok and "SPREAD" not in flag and "SHIFT" not in flag
            print(f"  {m['name']:<14}{statistics.median(per_set[0]):>14.6g}"
                  f"{max(spreads):>9.3f}{shift:>9.3f}{m['bound']:>7}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
