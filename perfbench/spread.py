#!/usr/bin/env python3
"""Run-to-run spread of the gate benchmark.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs perfbench/run.py once per (workload, seed), sequentially, with
BENCHMARK.json's run_seconds, and prints per metric the median and the
quartile spread (Q3 - Q1) / median over the seeds, as
statistics.quantiles(values, n=4) gives them, beside the metric's bound.
A spread above its bound, or above a third of it, is flagged. Raw results,
with the run's host diagnostics, are appended as JSON lines to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                      "spread.jsonl"))
    args = parser.parse_args()
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seed_list(args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            host = [json.loads(line[5:]) for line in lines
                    if line.startswith("host ")]
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace,
                                    "host": host[0] if host else None,
                                    **result}) + "\n")
            if run.returncode or not result["correct"]:
                print("%s seed %d: FAILED %d of %d" %
                      (workload, seed, result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s (%d seeds)" % (workload, len(seed_list(args.seeds))))
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else (
                    "  over a third" if spread > bound / 3 else "")
            print("  %-28s median %-14.6g spread %6.3f  bound %s%s" %
                  (name, median, spread, bound, flag))
    if not args.trace:
        print("\nworst spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
