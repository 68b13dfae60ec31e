#!/usr/bin/env python3
"""Steadiness check: run one workload N times with distinct seeds.

    python3 perfbench/steady.py --workload live-feeds --runs 10 --seconds 30

Prints, for every metric, the median, the first and third quartiles and
the spread (IQR / median), and flags each end-to-end metric whose spread
exceeds a tenth (or its BENCHMARK.json bound, whichever is smaller).
A run fails when it exits nonzero, answers wrongly or counts a failed
operation. Exits 1 when a run fails or a metric is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    failures = 0
    for k in range(args.runs):
        seed = args.first_seed + k
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = (out.returncode == 0 and result.get("correct") is True
              and result.get("failed") == 0)
        print("seed %d: exit %d, correct %s, failed %s/%s" % (
            seed, out.returncode, result.get("correct"),
            result.get("failed"), result.get("attempted")), flush=True)
        if not ok:
            failures += 1
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    limits = bounds()
    flagged = 0
    print("%-34s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                        "spread"))
    for name in sorted(values):
        vals = values[name]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        spread = (q3 - q1) / med if med else float("inf")
        limit = min(0.1, limits.get(name, 0.1))
        flag = ""
        if args.trace == 0 and spread > limit:
            flag = "  <-- spread above %.3g" % limit
            flagged += 1
        print("%-34s %14.6g %14.6g %14.6g %8.3f %s%s" % (
            name, med, q1, q3, spread, units[name], flag))
    sys.exit(1 if failures or flagged else 0)


if __name__ == "__main__":
    main()
