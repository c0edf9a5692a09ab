#!/usr/bin/env python3
"""Runs each workload repeatedly and prints the spread of every metric.

    python3 wallbench/steadiness.py [--workloads a,b] [--runs 10]
                                    [--seconds 20] [--trace 0] [--first-seed 1]

Run from the root of a checkout. Each run gets its own seed. For every
metric it prints the median, the first and third quartile (Python's
statistics.quantiles(values, n=4)), and the spread: the distance between
the quartiles as a share of the median. With --trace 0 it also prints each
end-to-end metric's bound from BENCHMARK.json and whether the spread stays
below a third of it; set-up time is exempt, as its runs are one cold
set-up each and only its median is compared.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        values, shares, correct = {}, set(), True
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(lines[-1])
            correct &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if args.trace == 0), flush=True)
        print(f"{workload}: {args.runs} runs, correct={correct}, "
              f"failed shares={sorted(shares)}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            note = ""
            if name in bounds:
                ok = name == "setup_s" or spread < bounds[name] / 3
                steady &= ok
                note = f"{bounds[name]:6.2f} {'ok' if ok else 'WIDE'}"
            print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {note}")
        steady &= correct and len(shares) == 1
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
