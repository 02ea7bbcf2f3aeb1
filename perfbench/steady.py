#!/usr/bin/env python3
"""Steadiness check for the iflow benchmark.

    python3 perfbench/steady.py

Runs each workload of BENCHMARK.json as two sets of ten runs (set k uses
seeds 1000*k+1 .. 1000*k+10), each run through perfbench/run.py with
run_seconds from BENCHMARK.json, one process per run and one run at a time.
Per end-to-end metric it prints each set's median and quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median against
the metric's bound, and how far the second set's median moved from the
first's.

A workload passes when every spread stays within its bound, the two
medians of every metric differ by no more than its bound (in either
direction), and the share of failed operations is the same in every run.
Spreads above a third of the bound are flagged as "wide": the benchmark
aims to stay below that. Exit status 1 when a workload does not pass.

Last, one run on HOLDOUT_SEED, a seed no set uses and none was tuned on,
is printed against the first set's median. It is one sample, so it is
shown, not gated.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2
HOLDOUT_SEED = 9001


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("%s seed %d: exit code %d" % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: output check failed" % (workload, seed))
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def check_workload(spec, workload):
    seconds = spec["run_seconds"]
    results = [[run_once(workload, 1000 * k + s + 1, seconds)
                for s in range(RUNS)] for k in range(SETS)]
    held = run_once(workload, HOLDOUT_SEED, seconds)
    ok = True
    shares = {r["failed"] / r["attempted"] for rs in results for r in rs}
    if len(shares) != 1:
        ok = False
        print("  %s: failed share differs between runs: %s"
              % (workload, sorted(shares)))
    print("%s (%d x %d runs of %d s)" % (workload, SETS, RUNS, seconds))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for k, rs in enumerate(results):
            med, q1, q3, spread = summary(
                [r["metrics"][name]["value"] for r in rs])
            medians.append(med)
            flag = "ok"
            if spread > bound:
                flag = "TOO WIDE"
                ok = False
            elif spread > bound / 3:
                flag = "wide"
            print("  %-18s set %d median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.2f%% of bound %4.1f%%  %s"
                  % (name, k + 1, med, q1, q3, 100 * spread, 100 * bound,
                     flag))
        for k in range(1, SETS):
            shift = (medians[k] - medians[0]) / medians[0]
            moved_ok = abs(shift) <= bound
            ok = ok and moved_ok
            print("  %-18s set %d vs set 1: median moved %+.2f%% (%s)"
                  % (name, k + 1, 100 * shift, "ok" if moved_ok else "MOVED"))
        v = held["metrics"][name]["value"]
        print("  %-18s hold-out seed %d: %.6g, %+.2f%% from set 1 median"
              % (name, HOLDOUT_SEED, v, 100 * (v - medians[0]) / medians[0]))
    print("  %s: %s" % (workload, "steady" if ok else "NOT STEADY"))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = all([check_workload(spec, w["name"]) for w in spec["workloads"]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
