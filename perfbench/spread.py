#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds 10]
                                [--trace 0] [--out runs.json] [--compare runs.json]

For every metric it prints the median over the runs and the spread, the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
marked "wide", above the bound "TOO WIDE". With --compare it also prints how
far each median moved from a saved set of runs, marking moves in the worse
direction beyond the bound. Exits 1 if a run failed or a spread exceeds its
bound (setup_s excepted, whose spread is not bounded).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    runs, failed = [], False
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            failed = True
            print(done.stdout, done.stderr, file=sys.stderr)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(values)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(values.items())))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(runs, f)
    base = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            base = json.load(f)

    for name in sorted(runs[0]):
        vals = [r[name] for r in runs if r.get(name) is not None]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = declared.get(name, {}).get("bound")
        mark = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                mark, failed = "TOO WIDE", True
            elif spread > bound / 3:
                mark = "wide"
        line = f"{name:36} median {med:<14.6g} spread {spread:7.4f}"
        if bound is not None:
            line += f"  bound {bound:<5} {mark}"
        if base is not None:
            old = statistics.median([r[name] for r in base if r.get(name) is not None])
            move = (med - old) / old if old else 0.0
            worse = move if declared.get(name, {}).get("better") == "lower" else -move
            flag = " WORSE" if bound is not None and worse > bound else ""
            line += f"  vs saved {move:+.4f}{flag}"
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
