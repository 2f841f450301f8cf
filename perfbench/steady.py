#!/usr/bin/env python3
"""Steadiness command: runs each workload repeatedly, one seed per run,
and prints each metric's median, quartiles, min/max and spread.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--seconds 20] [--trace 0]
                                [--first-seed 1] [workload ...]

The spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median: the
figure `BENCHMARK.json` bounds are set from. With no workload named,
every workload in `BENCHMARK.json` runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    """Runs run.py once; returns the parsed result line."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in workloads:
        values = {}
        for i in range(opts.runs):
            result = one_run(workload, opts.first_seed + i, seconds, opts.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {opts.runs} runs of {seconds} s")
        print(
            f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12}"
            f" {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}"
        )
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            shown = "" if bound is None else f"{bound:.2f}"
            print(
                f"  {name:<34} {med:>12.4f} {q1:>12.4f} {q3:>12.4f}"
                f" {min(vs):>12.4f} {max(vs):>12.4f} {spread:>7.3f} {shown:>6}"
            )
        sys.stdout.flush()


if __name__ == "__main__":
    main()
