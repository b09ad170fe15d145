#!/usr/bin/env python3
"""Observability-overhead gates: instrumented build against GSPS_OBS_DISABLED.

Both gates run the two builds as on/off pairs, flip which side runs first
in every other pair, and judge the median of the per-pair relative
differences, so a slow stretch on a shared host lands on both sides of a
pair instead of on one build.

  fig17  fig17_scalability_streams on the threaded engine (2 workers); one
         run's cost is the sum of avg_cost_ms over its rows. Bound 5%.
  join   micro_join at queries=200, per strategy, on delta_step_cpu_micros
         (the thread CPU time of one delta + refresh step). Bound 3% for
         the worst strategy. micro_join runs on one thread, and every run
         is pinned to the same CPU: on a shared host one CPU can run the
         same binary 1.7x slower than another (a busy sibling hyperthread),
         which would split unpinned runs into two modes.

Usage:
  bench/obs_overhead.py fig17 --on build-on --off build-off  # 20 pairs
  bench/obs_overhead.py join --on build-on --off build-off   # 30 pairs

Each run's bench JSON lands in --out (default obs-out) as
bench_<side>_<pair>.json or join_<side>_<pair>.json. Exits 1 when the
median overhead exceeds the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

GATES = {
    "fig17": {
        "binary": "bench/fig17_scalability_streams",
        "args": ["--pairs=8", "--real_streams=6", "--timestamps=8",
                 "--threads=2"],
        "prefix": "bench",
        "pairs": 20,
        "bound": 5.0,
        "pin": False,
    },
    "join": {
        "binary": "bench/micro_join",
        "args": ["--queries=200", "--refreshes=2000", "--rebuilds=5"],
        "prefix": "join",
        "pairs": 30,
        "bound": 3.0,
        "pin": True,
    },
}


def run(gate, build, path):
    if os.path.exists(path):
        os.remove(path)
    env = dict(os.environ, GSPS_BENCH_JSON=path)
    subprocess.run([os.path.join(build, gate["binary"])] + gate["args"],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def costs(name, rows):
    """Cost per series of one run: {series: value}."""
    if name == "fig17":
        assert rows and all(r["num_threads"] == 2 for r in rows), \
            "expected 2-thread fig17 rows"
        return {"fig17": sum(r["avg_cost_ms"] for r in rows)}
    return {r["setting"]: r["delta_step_cpu_micros"] for r in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("gate", choices=sorted(GATES))
    parser.add_argument("--on", required=True, help="instrumented build dir")
    parser.add_argument("--off", required=True,
                        help="GSPS_OBS_DISABLED build dir")
    parser.add_argument("--out", default="obs-out",
                        help="directory for the runs' bench JSON")
    args = parser.parse_args()
    gate = GATES[args.gate]
    os.makedirs(args.out, exist_ok=True)
    if gate["pin"]:  # Inherited by every run.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    deltas = {}  # series -> per-pair overhead in percent
    for pair in range(gate["pairs"]):
        sides = ("on", "off") if pair % 2 == 0 else ("off", "on")
        cost = {}
        for side in sides:
            path = os.path.join(args.out,
                                f"{gate['prefix']}_{side}_{pair + 1}.json")
            build = args.on if side == "on" else args.off
            cost[side] = costs(args.gate, run(gate, build, path))
        for series, off in cost["off"].items():
            on = cost["on"][series]
            deltas.setdefault(series, []).append((on - off) / off * 100.0)

    worst = None
    for series in sorted(deltas):
        values = sorted(deltas[series])
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{series}: median {median:+.2f}% over {len(values)} pairs "
              f"(quartiles {q1:+.2f}% / {q3:+.2f}%)")
        worst = median if worst is None else max(worst, median)
    print(f"{args.gate} overhead: {worst:+.2f}% (bound {gate['bound']:.0f}%)")
    if worst > gate["bound"]:
        sys.exit(f"instrumentation overhead {worst:.2f}% > {gate['bound']:.0f}%")


if __name__ == "__main__":
    main()
