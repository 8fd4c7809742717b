#!/usr/bin/env python3
"""Run every benchmark workload and print every metric with its unit.

    python3 bench/report.py [--seed 1] [--seconds 36]

For each workload of BENCHMARK.json this runs bench/run.py once with
--trace 0 and twice with --trace 1 (seeds S and S+1).  It checks that every
run is correct, that the layer named in SHARES takes more than half of the
traced total, and that every count repeats exactly between the two traced
runs.  It exits with 1 if a check fails.  About six minutes with the default
36 seconds per run.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT

# Workload -> the layer that should dominate its traced total.
SHARES = {"solve-n4r1": "omega.matrix_s",
          "solve-n2r5": "factor.solve_s",
          "thm55-n3r2": "greencheck.inner_product_s"}


def bench(workload, seed, seconds, trace) -> tuple:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    *_, record, result = out.stdout.splitlines()
    return json.loads(record)["run"], json.loads(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(name, args.seed, args.seconds, 0),
                bench(name, args.seed, args.seconds, 1),
                bench(name, args.seed + 1, args.seconds, 1)]
        for record, result in runs:
            print(f"{name} trace={record['trace']} seed={record['seed']} "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} python={record['python']} "
                  f"nproc={record['nproc']} git={record['git_revision']} "
                  f"load={record['loadavg_before'][0]:.2f}->"
                  f"{record['loadavg_after'][0]:.2f}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
            if not result["correct"]:
                problems.append(f"{name}: seed {record['seed']} incorrect")
        first, second = runs[1][1]["metrics"], runs[2][1]["metrics"]
        share = first[SHARES[name]]["value"] / first["trace.total_s"]["value"]
        print(f"  share of {SHARES[name]} in trace.total_s: {share:.1%}")
        if share <= 0.5:
            problems.append(f"{name}: {SHARES[name]} is {share:.1%} of the total")
        for metric, m in first.items():
            if m["unit"] != "s" and m["value"] != second[metric]["value"]:
                problems.append(f"{name}: {metric} differs between traced runs")
    for p in problems:
        print(f"CHECK FAILED {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
