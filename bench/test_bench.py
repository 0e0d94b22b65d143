"""Smoke-size runs of every benchmark workload with its oracles.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--size", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 2
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        value = res["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float) and value["value"] >= 0
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in metrics)


def test_trace_sees_the_layers_each_workload_drives():
    res = result(bench("--workload", "suite_all", "--seconds", "0", "--trace", "1",
                       "--size", "smoke"))["metrics"]
    assert res["primes.build_sieve.s"]["value"] > 0
    assert res["primes.sieve_bytes"]["value"] >= 4 * 10**7  # the suite's 10^7 sieve
    assert res["suite.check_psi_oracle_equivalence.s"]["value"] > 0
    assert res["smoothcount.psi_exact.s"]["value"] > 0
    assert res["pd_process.pd_sample_batch.s"]["value"] == 0  # not in "identities"


def test_every_workload_in_one_command():
    res = result(bench("--workload", "all", "--seconds", "0", "--size", "smoke"))
    assert res["correct"] is True
    assert {f"{w}.run_s" for w in WORKLOADS} <= set(res["metrics"])


def test_a_wrong_pin_is_a_failed_check(tmp_path):
    copy = tmp_path / "repo"
    shutil.copytree(ROOT / "src", copy / "src")
    shutil.copytree(HERE, copy / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    pins = json.loads((copy / "bench" / "pins.json").read_text())
    for entry in pins["psi_large"]["smoke"]["family"]:
        entry["psi"] += 1
    (copy / "bench" / "pins.json").write_text(json.dumps(pins))
    res = result(bench("--workload", "psi_large", "--seconds", "0", "--size", "smoke",
                       cwd=copy, script=copy / "bench" / "run.py"))
    assert res["correct"] is False and res["failed"] == 2


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "suite_all", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
