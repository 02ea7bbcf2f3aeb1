#!/usr/bin/env python3
"""Benchmark entry point for iflow.

    python3 perfbench/run.py --workload churn|stream|recover|scale \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

--seconds defaults to run_seconds in BENCHMARK.json. Run from the root of a
checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt: the library from src/ plus the
benchmark program) into $CARGO_TARGET_DIR, default .bench_build/, with
build output on stderr.

--trace 0 runs the workload once and ends with one JSON line holding its
end-to-end metrics. --trace 1 runs the same seed untraced and then traced,
prints the tracing overhead (the traced run's change in each end-to-end
metric) and ends with the per-layer metrics of the traced run.

--self-check runs every workload at a tiny size, traced, with every output
check on, and validates the printed metrics against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("churn", "stream", "recover", "scale")
# Wall time the benchmark program may take per command, all its runs
# together; the build before it is not counted.
RUN_TIMEOUT_S = 175


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "iflow_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))
    return os.path.join(out, "iflow_perfbench")


def run(binary, workload, seed, seconds, trace, deadline, quick=False):
    """Runs the benchmark program once, to end by `deadline` (a
    time.monotonic() value); echoes its report lines, returns them and the
    parsed result object from its last line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    return lines[:-1], result


def e2e_of(lines):
    for line in lines:
        if line.startswith("e2e-json: "):
            return json.loads(line[len("e2e-json: "):])
    sys.exit("traced run printed no end-to-end figures")


def measure(args):
    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not args.trace:
        _, result = run(binary, args.workload, args.seed, args.seconds, False,
                        deadline)
        print(json.dumps(result), flush=True)
        return
    _, plain = run(binary, args.workload, args.seed, args.seconds, False,
                   deadline)
    lines, traced = run(binary, args.workload, args.seed, args.seconds, True,
                        deadline)
    for name, m in e2e_of(lines).items():
        base = plain["metrics"][name]["value"]
        change = (m["value"] - base) / base if base else 0.0
        print("tracing overhead %s %+.2f%% (untraced %.6g, traced %.6g %s)"
              % (name, 100.0 * change, base, m["value"], m["unit"]))
    traced["correct"] = traced["correct"] and plain["correct"]
    print(json.dumps(traced), flush=True)


def self_check():
    """Every workload, tiny, traced, checked; metric names and units must
    match BENCHMARK.json."""
    bench = spec()
    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    ok = True
    for w in WORKLOADS:
        lines, result = run(binary, w, 1, 0, True, deadline, quick=True)
        got = {"end_to_end": e2e_of(lines), "per_layer": result["metrics"]}
        for kind, metrics in got.items():
            want = {m["name"]: m["unit"] for m in bench[kind]}
            have = {n: m["unit"] for n, m in metrics.items()}
            if want != have:
                ok = False
                print("self-check %s: %s metrics differ from BENCHMARK.json:"
                      " %s" % (w, kind, sorted(set(want.items()) ^
                                                set(have.items()))))
        if not result["correct"] or result["failed"]:
            ok = False
        print("self-check %s: %s, %d attempted, %d failed"
              % (w, "correct" if result["correct"] else "INCORRECT",
                 result["attempted"], result["failed"]))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
