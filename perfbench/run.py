#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is its own cargo package
(perfbench/Cargo.toml) that builds the repository's crates by path; the
build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(ROOT, target, "release", "lemp-perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
