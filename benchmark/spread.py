#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs `benchmark/run.sh --workload W --seed S --seconds N --trace 0` ten times
per workload, each time with another seed, and prints for every metric the
distance between the first and third quartile of the ten values
(`statistics.quantiles(values, n=4)`) as a share of their median, next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
marked: lengthen the frozen op counts or widen the bound before it bites.

usage: benchmark/spread.py [--runs 10] [--first-seed 101] [WORKLOAD ...]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed):
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed of {result['attempted']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    worst = 0.0
    for workload in args.workloads:
        runs = [run(workload, args.first_seed + i) for i in range(args.runs)]
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in SPEC["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            gated = metric["name"] != "setup_s"
            mark = "  <-- above a third of the bound" if gated and spread > metric["bound"] / 3 else ""
            worst = max(worst, spread / metric["bound"] if gated else 0.0)
            print(f"  {metric['name']:<14} median {median:>12.4f} {metric['unit']:<4} "
                  f"spread {spread:6.1%}  bound {metric['bound']:4.0%}{mark}", flush=True)
    print(f"worst spread is {worst:.0%} of its bound")


if __name__ == "__main__":
    main()
