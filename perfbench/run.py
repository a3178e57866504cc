#!/usr/bin/env python3
"""Build and run the GPS benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline|serve-hot|serve-cold|all \
        --seed N --seconds S --trace 0|1

Builds the benchmark package in perfbench/gpsbench (release, offline)
into $CARGO_TARGET_DIR (default .bench_build), then runs it with the
same arguments. Build output goes to standard error. Each workload runs
in its own process; the last line of its standard output is the result
object. `--workload all` runs every workload listed in BENCHMARK.json in
turn and exits non-zero if any of them fails. Per-run records, with
provenance and the traced run's spans, are written to .bench_out/.

Self-tests of the benchmark's helpers:

    cargo test --offline --manifest-path perfbench/gpsbench/Cargo.toml
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "gpsbench", "Cargo.toml")
# One run must end within 180 s; the build before the first run may not.
RUN_TIMEOUT_S = 170


def run_one(binary, args, env):
    try:
        return subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    os.chdir(ROOT)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "gpsbench")
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        at = args.index("--workload") + 1
        codes = [run_one(binary, args[:at] + [w] + args[at + 1:], env) for w in workloads]
        return max(codes)
    return run_one(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
