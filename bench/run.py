#!/usr/bin/env python3
"""Cold-process benchmark of the `wkostka` command.

Run from the root of a source checkout:

    python3 bench/run.py --workload solve-n2r5 --seed 1 --seconds 36 --trace 0

Every sample starts a fresh interpreter on `python3 -m wkostka.cli ...` with
./src on PYTHONPATH, and checks the sha256 of its stdout against the digest
recorded below.  Samples repeat until the next one would overrun --seconds
(at least one always runs).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of the
samples' wall time, CPU time and peak RSS, and the median time a fresh
interpreter takes to import wkostka.cli.  Each time is taken relative to a
fixed reference loop timed just before it (see end_to_end); the run record
keeps the plain medians as well.  --trace 1 alternates untraced
samples with traced ones (bench/traced.py) and reports the per-layer
metrics.  stdout ends with two JSON lines: the run record, then the result.
The seed sets PYTHONHASHSEED of every child; the inputs themselves are fixed,
because the digest gate needs the same output on every run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = Path(__file__).resolve().parent / "traced.py"

# Workload -> (wkostka arguments, sha256 of its stdout at the seed commit).
WORKLOADS = {
    "solve-n4r1": (("solve", "--n", "4", "--r", "1"),
                   "741bb4beb646c9280245d345cd06d5b9f44bbf6c4a535b3b8eb5e10fbdb0fa36"),
    "solve-n2r5": (("solve", "--n", "2", "--r", "5"),
                   "0a4100743a4abdf11a32003735ac387d918235f14f7084b91f24522fc12cdd16"),
    "thm55-n3r2": (("verify", "thm55", "--n", "3", "--r", "2"),
                   "7ef53aed39c1e105697587fc96e09f94faf7ca32276c773fcde97b867c79db74"),
    # Seconds-long harness check; not a benchmark workload.
    "smoke-n1r3": (("solve", "--n", "1", "--r", "3"),
                   "d403a744a4d08b3244db57cc81e9e6cedbc503e0516371a84a07ff59816f97fc"),
}

# A fixed pure-Python loop that does not touch wkostka: exact fractions in a
# dict, the kind of work the program does.  Its median time over a run says
# how fast the machine was during that run.
REFERENCE_CODE = """from fractions import Fraction
d = {}
for i in range(30000):
    k = (i * 7919) % 1009
    d[k] = d.get(k, Fraction(0)) + Fraction(i, k + 1)
"""
# About the reference child's median wall time on the machine the benchmark
# was defined on (2-vCPU VM, Python 3.11.7), where it ranged from 0.13 to
# 0.24 s as the host got busier.  Reported times are scaled to it; see
# end_to_end().
REFERENCE_S = 0.2

SETUP_PER_SAMPLE = 3
REFERENCE_PER_SAMPLE = 3
CHILD_TIMEOUT_S = 170


@dataclass
class Sample:
    """One finished child process."""

    wall: float
    cpu: float
    rss_mib: float
    returncode: int
    stdout: bytes
    stderr: bytes


def run_child(cmd, env) -> Sample:
    """Run cmd from ROOT; wall clock, CPU and peak RSS come from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, proc.returncode, out, err[0])


def sample_until(budget_s, take) -> list:
    """Call take(), which returns a batch of samples, until the next batch
    would end after budget_s.

    The next batch is predicted to last as long as the samples of the last
    one took together; the first batch always runs."""
    samples = []
    start = time.perf_counter()
    while True:
        batch = take()
        samples.extend(batch)
        elapsed = time.perf_counter() - start
        if elapsed + sum(s.wall for s in batch) > budget_s:
            return samples


def child_env(seed: int) -> dict:
    """Environment of every child: ./src first on the path, hash seed fixed."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                PYTHONHASHSEED=str(seed % 2**32))


def digest_ok(sample: Sample, want: str) -> bool:
    return sample.returncode == 0 and \
        hashlib.sha256(sample.stdout).hexdigest() == want


def run_record(args, load_before, measured) -> dict:
    head = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_file = git / ref[5:]
            head = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            head = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0")
            src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_revision": head,
            "src_sha256": src.hexdigest(),
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
            "measured": measured}


def end_to_end(argv, want, env, seconds):
    """Untraced samples, set-up timing and reference timing; returns (values,
    samples, failed samples).

    Before each command sample run a few set-up samples, then a few
    reference samples (REFERENCE_CODE); one more such batch follows the last
    command sample.  The host changes the speed of the CPU for seconds to
    minutes at a time, by up to 1.5x, and every child slows alike.  So each
    sample's time is divided by the median reference time of the batch just
    before it, and a time metric is the median of these ratios over the run
    times REFERENCE_S: seconds at the speed at which the reference takes
    REFERENCE_S.  values["measured"] holds the plain medians, unscaled."""
    setup_cmd = [sys.executable, "-c", "import wkostka.cli"]
    reference_cmd = [sys.executable, "-c", REFERENCE_CODE]
    cli_cmd = [sys.executable, "-m", "wkostka.cli", *argv]
    run_child(setup_cmd, env)  # writes the bytecode caches once
    batches = []  # (set-up samples, reference samples), one per between()

    def between():
        batches.append(
            ([run_child(setup_cmd, env) for _ in range(SETUP_PER_SAMPLE)],
             [run_child(reference_cmd, env)
              for _ in range(REFERENCE_PER_SAMPLE)]))

    def take():
        between()
        return [run_child(cli_cmd, env)]

    samples = sample_until(seconds, take)
    between()
    paired = [(s, ref) for s, (_, ref) in zip(samples, batches)]
    good = [(s, ref) for s, ref in paired if digest_ok(s, want)] or paired

    def wall(runs):
        return statistics.median(s.wall for s in runs)

    def cpu(runs):
        return statistics.median(s.cpu for s in runs)

    def scaled(ratios):
        return REFERENCE_S * statistics.median(ratios)

    values = {
        "wall_s": scaled(s.wall / wall(ref) for s, ref in good),
        "cpu_s": scaled(s.cpu / cpu(ref) for s, ref in good),
        "setup_s": scaled(wall(setup) / wall(ref) for setup, ref in batches),
        "peak_rss_mib": statistics.median(s.rss_mib for s, _ in good),
        "measured": {
            "wall_s": wall(s for s, _ in good),
            "cpu_s": cpu(s for s, _ in good),
            "setup_s": wall(s for setup, _ in batches for s in setup),
            "reference_wall_s": wall(s for _, ref in batches for s in ref),
            "reference_cpu_s": cpu(s for _, ref in batches for s in ref)}}
    return values, samples, [s for s in samples if not digest_ok(s, want)]


def per_layer(argv, want, env, seconds):
    """An untraced sample, then a traced one, repeated; returns
    (values, samples, failed samples, consistent) where consistent says
    every count matched between the traced samples."""
    cli_cmd = [sys.executable, "-m", "wkostka.cli", *argv]
    traced_cmd = [sys.executable, str(TRACED), *argv]
    plain, traced, reports, failed = [], [], [], []

    def take():
        s = run_child(cli_cmd, env)
        t = run_child(traced_cmd, env)
        plain.append(s)
        if not digest_ok(s, want):
            failed.append(s)
        traced.append(t)
        report = None
        if t.returncode == 0:
            report = json.loads(t.stdout.decode().splitlines()[-1])
        if report is None or report["output_sha256"] != want:
            failed.append(t)
        else:
            reports.append(report["metrics"])
        return [s, t]

    samples = sample_until(seconds, take)
    if not reports:
        return None, samples, failed, False
    values, consistent = {}, True
    for name in reports[0]:
        got = [r[name] for r in reports]
        if name.endswith("_s"):
            values[name] = statistics.median(got)
        else:
            values[name] = got[0]
            consistent = consistent and len(set(got)) == 1
    good_plain = [s for s in plain if digest_ok(s, want)] or plain
    values["trace.overhead_s"] = (
        statistics.median(s.wall for s in traced)
        - statistics.median(s.wall for s in good_plain))
    return values, samples, failed, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wkostka" / "cli.py").is_file():
        print(f"error: no wkostka sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    load_before = os.getloadavg()
    # One CPU for this process and every child: the CPUs of a shared host
    # change speed each on their own, and a reference timed on one CPU says
    # nothing about a sample that ran on another.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli_argv, want = WORKLOADS[args.workload]
    env = child_env(args.seed)
    if args.trace:
        values, samples, failed, correct = per_layer(cli_argv, want, env,
                                                      args.seconds)
    else:
        values, samples, failed = end_to_end(cli_argv, want, env, args.seconds)
        correct = True
    for s in failed:
        print(f"failed sample: exit {s.returncode}: "
              f"{s.stderr.decode(errors='replace').strip()[-500:]}",
              file=sys.stderr)
    if values is None:
        print("error: no traced sample succeeded", file=sys.stderr)
        return 1

    measured = values.pop("measured", None)
    print(json.dumps({"run": run_record(args, load_before, measured)}))
    print(json.dumps({
        "correct": correct and not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
