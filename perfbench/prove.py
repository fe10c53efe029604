#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/prove.py [--seeds 10] [--first-seed 1]
                               [--workloads suite,cells] [--out FILE]

Run from the repository root. Each run is the command in BENCHMARK.json
with `--workload W --seed S --seconds <run_seconds> --trace 0`, built in
`.bench_build`. The spread is (Q3 - Q1) / median with the quartiles of
Python's `statistics.quantiles(values, n=4)`; a metric is steady when its
spread is below a third of its bound (`setup_s` is exempt). `--out`
writes every run's result and provenance as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    prov = next((l.split(": ", 1)[1] for l in lines if l.startswith("provenance: ")), "{}")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(prov)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    steady = True
    for w in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(bench, w, seed, 0)
            runs.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  flush=True)
        record[w] = runs
        print(f"\n{w}: {'metric':<14} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for m, bound in bounds.items():
            values = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = m == "setup_s" or spread < bound / 3
            steady &= ok
            print(f"{w}: {m:<14} {med:>12.5g} {spread:>8.3f} {bound / 3:>8.3f}"
                  f"{'' if ok else '  UNSTEADY'}")
        if not all(r["correct"] for r in runs):
            steady = False
            print(f"{w}: some runs were not correct")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
