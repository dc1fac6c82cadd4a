#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--inject-failure]

The harness (perfbench/harness, a Cargo package of its own) is built in
release mode into $CARGO_TARGET_DIR (default .bench_build). Build output
goes to stderr; stdout carries the harness's report, whose last line is the
JSON result. The exit code is the harness's: 0 when every correctness check
passed, 1 when one failed, 2 on a usage or build error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")


def build(env):
    """Builds the harness; returns the path of its binary, or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        print("perfbench: harness build failed", file=sys.stderr)
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    exe = build(env)
    if exe is None:
        return 2
    return subprocess.run([exe, "run", *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
