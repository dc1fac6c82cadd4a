#!/usr/bin/env python3
"""Self-test of the benchmark, in seconds: smoke mode on every workload.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  * every workload in BENCHMARK.json runs in smoke mode, untraced and
    traced, and prints exactly the declared end-to-end (resp. per-layer)
    metrics, each with a finite value and its declared unit;
  * an injected correctness failure makes the command exit non-zero with
    "correct": false;
  * per-run peak RSS is reset between runs (a small run after a large one
    reports a lower peak).
Exits 0 when every check passed.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def invoke(workload, trace, extra=()):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(
        RUN + args + ["--smoke", *extra], capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return done.returncode, result, done.stdout + done.stderr


def check_metrics(result, declared):
    """Problems with the metrics object against the declared list."""
    problems = []
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            problems.append(f"result lacks '{key}'")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    return problems


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    failures = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, text = invoke(w["name"], trace)
            label = f"{w['name']} trace {trace}"
            if result is None:
                failures.append(f"{label}: no JSON result line\n{text}")
                continue
            problems = check_metrics(result, declared)
            if code != 0 or not result.get("correct") or result.get("failed") != 0:
                problems.append(f"exit {code}, correct {result.get('correct')}\n{text}")
            print(f"{label}: {'ok' if not problems else 'FAILED'}")
            failures.extend(f"{label}: {p}" for p in problems)

    code, result, text = invoke(bench["workloads"][0]["name"], 0, ["--inject-failure"])
    gate_ok = code != 0 and result is not None and result.get("correct") is False
    gate_ok = gate_ok and result.get("failed", 0) >= 1
    print(f"injected failure fails the run: {'ok' if gate_ok else 'FAILED'}")
    if not gate_ok:
        failures.append(f"injected failure was not reported (exit {code})\n{text}")

    exe = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release", "perfbench")
    done = subprocess.run([exe, "rss-selftest"], capture_output=True, text=True, check=False)
    print(done.stdout.strip())
    if done.returncode != 0:
        failures.append("per-run peak RSS is not isolated")

    for f in failures:
        print("FAILED", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
