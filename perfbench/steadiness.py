#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how much each metric spreads.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workload serve_control --seeds 1,2,3,4,5
    python3 perfbench/steadiness.py --workload reproduce_full --workload serve_control \
        --seeds 11,12,13,14,15,16,17,18,19,20 --out spreads.json

Each run is the command of BENCHMARK.json with `--workload`, `--seed`,
`--seconds` (BENCHMARK.json's `run_seconds`) and `--trace`. For every metric
it prints the median and the spread: the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median. End-to-end spreads are flagged when they reach a third of the
metric's bound. Runs go one at a time, so they never compete for the CPU.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{proc.stdout}")
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write every value and spread as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {}
    for workload in args.workload:
        values = {}
        walls = []
        for seed in seeds:
            result, wall = run_once(bench, workload, seed, args.trace)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = ", ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                              if n in bounds)
            print(f"{workload} seed {seed}: {wall:.1f} s wall {shown}", file=sys.stderr)
        rows = {}
        print(f"== {workload} (trace {args.trace}, {len(seeds)} seeds, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s)")
        for name, vals in values.items():
            med, sp = spread(vals) if len(vals) >= 2 else (vals[0], 0.0)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and sp >= bound / 3:
                flag = f"  <-- at or above a third of the bound {bound}"
            print(f"{name:<34} median {med:>16.6g}  spread {sp:7.2%}{flag}")
            rows[name] = {"values": vals, "median": med, "spread": sp}
        summary[workload] = {"seeds": seeds, "wall_s": walls, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
