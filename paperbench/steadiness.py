#!/usr/bin/env python3
"""Repeat each workload with different seeds and report how steady it is.

Usage (from the root of a checkout):
    python3 paperbench/steadiness.py [--runs 10]

Runs `paperbench/run.py --trace 0` with seeds 1..runs for every workload of
BENCHMARK.json and prints, for each end-to-end metric, the median, the first
and third quartiles and the spread (Q3 - Q1) / median against the metric's
bound, and flags a spread above the bound. Also checks that every run was
correct and that the failed share is the same in every run. Exits 1 if any
check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 to have quartiles")

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        shares = set()
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs not correct")
                ok = False
            shares.add((result["failed"], result["attempted"])
                       if result["failed"] else 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        if len({f if f == 0 else f[0] / f[1] for f in shares}) > 1:
            print(f"{workload}: the failed share differs between runs")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            verdict = "ok"
            if spread > bound:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {workload:<12} {name:<15} median {med:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                  f"bound {bound} ({spread / bound:.0%} of it) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
