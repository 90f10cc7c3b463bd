#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times back to back and prints,
per end-to-end metric, the median, quartiles, min, max and the spread
(interquartile distance over the median), with a fixed CPU probe timed
before and after every run so host-speed phases show.

    python3 fleetbench/steady.py --workload spill-cluster --runs 10 \
        [--seconds 25] [--seed0 1] [--trace 0] [--other <checkout>]

Run from the repository root. With `--other`, the runs alternate
between this checkout and another one (A/B, or A/A when both hold the
same commit); each side gets its own summary and the medians are
compared. Each run's seed is `seed0 + i`, the same on both sides.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def probe_ms():
    """A fixed CPU loop; its time tracks the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("fleetbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"run failed in {checkout} (seed {seed})")
    return json.loads(lines[-1])


def summarize(label, results):
    print(f"\n== {label}: {len(results)} runs")
    names = list(results[0]["metrics"])
    print(f"{'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}"
          f"{'max':>12}{'spread':>9}")
    medians = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<26}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{min(values):>12.5g}{max(values):>12.5g}{spread:>9.3f}")
    return medians


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--other")
    args = ap.parse_args()
    sides = [("this", ".")]
    if args.other:
        sides.append(("other", args.other))
    results = {label: [] for label, _ in sides}
    for i in range(args.runs):
        seed = args.seed0 + i
        order = sides if i % 2 == 0 else sides[::-1]
        for label, checkout in order:
            before = probe_ms()
            result = run_once(checkout, args.workload, seed, args.seconds,
                              args.trace)
            after = probe_ms()
            results[label].append(result)
            ok = "ok" if result["correct"] and result["failed"] == 0 else "FAILED"
            print(f"run {i} {label} seed {seed}: {ok}, "
                  f"probe {before:.1f} -> {after:.1f} ms", flush=True)
            print("  " + " ".join(f"{name}={m['value']:.4g}"
                                  for name, m in result["metrics"].items()),
                  flush=True)
    medians = {label: summarize(label, rs) for label, rs in results.items()}
    if args.other:
        print("\n== other / this (median ratio)")
        for name, value in medians["this"].items():
            other = medians["other"][name]
            ratio = other / value if value else float("nan")
            print(f"{name:<26}{ratio:>9.3f}")
    bounds_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(bounds_path):
        with open(bounds_path) as f:
            bench = json.load(f)
        key = "per_layer" if args.trace else "end_to_end"
        print("\n== spread against the bounds in BENCHMARK.json")
        for metric in bench[key]:
            bound = metric.get("bound")
            if bound is None:
                continue
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results["this"]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            flag = "ok" if spread <= bound / 3 else (
                "WIDE" if spread <= bound else "OVER")
            print(f"{metric['name']:<26}{spread:>8.3f} / {bound:<5} {flag}")


if __name__ == "__main__":
    main()
