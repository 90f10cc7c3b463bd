#!/usr/bin/env python3
"""Builds the CLI and the benchmark from source, then runs one workload.

    python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Artifacts land in
$CARGO_TARGET_DIR (default `.bench_build`); prepared server state and
the live copy a run works on land in `.fleetbench/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        stdout=sys.stderr,
        env=env,
    )
    if result.returncode != 0:
        sys.exit(f"fleetbench: build failed: cargo build {' '.join(args)}")


def main():
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("fleetbench: run from the repository root (no Cargo.toml or crates/ here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(["-p", "energydx-cli"], target)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target)
    cmd = [
        os.path.join(target, "release", "fleetbench"),
        "--cli", os.path.join(target, "release", "energydx"),
        "--work", ".fleetbench",
    ] + sys.argv[1:]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
