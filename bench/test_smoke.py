"""Smoke test of the benchmark harness on `wkostka solve --n 1 --r 3`.

    python3 -m pytest bench/test_smoke.py -q

Takes a few seconds.  It is not part of the suite under tests/.
"""
import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE_ARGV, SMOKE_SHA = run.WORKLOADS["smoke-n1r3"]


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, section, seconds, least", [
    ("0", "end_to_end", "1", 1),
    ("1", "per_layer", "3", 4),  # two traced samples, so counts are compared
])
def test_reports_every_metric_with_its_unit(trace, section, seconds, least):
    out = bench("--workload", "smoke-n1r3", "--seed", "7",
                "--seconds", seconds, "--trace", trace)
    assert out.returncode == 0, out.stderr
    *_, record_line, result_line = out.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= least
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    record = json.loads(record_line)["run"]
    for key in ("python", "nproc", "git_revision", "src_sha256",
                "loadavg_before", "loadavg_after", "measured"):
        assert key in record
    if trace == "0":
        assert set(record["measured"]) == {
            "wall_s", "cpu_s", "setup_s", "reference_wall_s", "reference_cpu_s"}


def test_traced_counts_describe_the_cli_computation():
    metrics = json.loads(bench("--workload", "smoke-n1r3", "--seconds", "3",
                               "--trace", "1").stdout.splitlines()[-1])["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["rpart.K"] == 3
    assert value["omega.entries"] == 9
    assert value["cli.output_bytes"] == 2170
    assert value["greencheck.inner_products"] == 0
    assert value["exact.poly_gcd_calls"] > 0
    assert value["omega.matrix_s"] >= value["omega.matrix_self_s"] > 0


def test_digest_gate_fails_wrong_output_and_bad_exit():
    env = run.child_env(0)
    _, samples, failed = run.end_to_end(SMOKE_ARGV, "0" * 64, env, 0.1)
    assert len(failed) == len(samples) >= 1
    _, samples, failed = run.end_to_end(("solve", "--n", "1", "--r", "0"),
                                        SMOKE_SHA, env, 0.1)
    assert len(failed) == len(samples) >= 1
    assert samples[0].returncode == 2
    values, samples, failed, _ = run.per_layer(SMOKE_ARGV, "0" * 64, env, 0.1)
    assert values is None and len(failed) == len(samples) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "solve-n2r5", "--seed", "1", "--seconds", "36",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
