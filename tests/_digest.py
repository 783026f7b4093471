"""Shared helpers of the golden-digest tests.

A digest module stores a compact, machine-independent record of one
command's output at a few seeds: counts and texts exactly, floats to be
compared within 1e-12 relative.  Run a digest module as a script to print
its current table, e.g. after a change that moves numerics on purpose:

    PYTHONPATH=src python3 tests/test_bo_digest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pprint
import tempfile
from pathlib import Path

import pytest
import yaml

import amsizer.cli
from amsizer.cli import main

ROOT = Path(__file__).resolve().parent.parent


def config_at_seed(source: Path, tmp_path: Path, seed: int) -> Path:
    """`source` with absolute paths, the given seed and a temporary output dir."""
    cfg = yaml.safe_load(source.read_text(encoding="utf-8"))
    cfg["netlist"] = str((source.parent / cfg["netlist"]).resolve())
    cfg["backend"]["scenario"] = str((source.parent / cfg["backend"]["scenario"]).resolve())
    cfg["seed"] = seed
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    return path


def optimize_row(source: Path, tmp_path: Path, seed: int, algo: str, budget: int):
    """`amsizer optimize` at `seed`: (budget_used, failed_evaluations, best_fom,
    FoM of every evaluation in order)."""
    results = []
    optimize = amsizer.cli.optimize

    def recorded(*args, **kwargs):
        results.append(optimize(*args, **kwargs))
        return results[-1]

    argv = ["optimize", str(config_at_seed(source, tmp_path, seed)), "--algo", algo,
            "--budget", str(budget)]
    out = io.StringIO()
    amsizer.cli.optimize = recorded
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        amsizer.cli.optimize = optimize
    assert code == 0
    doc = json.loads(out.getvalue())
    (result,) = results
    assert doc["budget_used"] == len(result.evaluations)
    return (doc["budget_used"], doc["failed_evaluations"], doc["best_fom"],
            [ev.fom for ev in result.evaluations])


def assert_optimize_row(got, want) -> None:
    """Counts exactly; best_fom and every evaluation's FoM within 1e-12 relative."""
    (used, failed, best_fom, foms), (want_used, want_failed, want_best, want_foms) = got, want
    assert (used, failed) == (want_used, want_failed)
    assert best_fom == pytest.approx(want_best, rel=1e-12, abs=0.0)
    assert len(foms) == len(want_foms)
    assert foms == pytest.approx(want_foms, rel=1e-12, abs=0.0)


def print_digest(row, seeds, comment: str) -> None:
    """Print `DIGEST = {seed: row(seed, tmp_path)}` for pasting into a digest module."""
    table = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            table[seed] = row(seed, Path(tmp))
    print(f"# {comment}")
    print("DIGEST = " + pprint.pformat(table, width=100, compact=True, sort_dicts=False))
