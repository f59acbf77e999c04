"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mix --runs 10 [--seconds S]

Runs ``run.py`` once per seed (1..runs, or from ``--first-seed``), one
after another, and prints for every metric of the final JSON line its
median and its quartile spread, (Q3 - Q1) / median, next to the bound
BENCHMARK.json gives it.  A run that exits non-zero, prints no result
or reports ``correct: false`` is listed and stops the sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from arith import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, done.returncode,
                                             done.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.4f" % (name, metric["value"])
                     for name, metric in result["metrics"].items()
                     if name in bounds)), flush=True)
        if not result["correct"]:
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if args.runs < 2:
        return 0
    print("%-44s %12s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if median else float("nan")
        bound = bounds.get(name)
        print("%-44s %12.4f %8.1f%% %7s" % (
            name, median, spread * 100.0,
            "" if bound is None else "%.0f%%" % (bound * 100.0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
