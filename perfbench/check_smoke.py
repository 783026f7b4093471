"""Smoke tests of the benchmark itself, at tiny optimizer budgets.

    python3 -m pytest perfbench/check_smoke.py

The file name keeps these out of the repository's default test run: they
exercise the benchmark, not amsizer, and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest
import yaml

from workloads import WORKLOADS, generate_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("agentic-two-stage", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generated_config_is_absolute_and_seeded(tmp_path):
    dest = generate_config(os.path.join(BENCH_DIR, "configs", "de_tran_run.yaml"),
                           str(tmp_path / "run.yaml"), 7, str(tmp_path / "out"))
    with open(dest, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    assert cfg["seed"] == 7
    assert cfg["netlist"] == os.path.join(ROOT, "tests", "data", "two_stage.sp")
    assert os.path.isfile(cfg["backend"]["scenario"])
    assert float(cfg["analysis"]["tran"]["dt"]) == 1e-9
