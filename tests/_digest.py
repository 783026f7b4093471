"""Shared helpers of the golden-digest tests.

A digest module stores a compact, machine-independent record of one
command's output at a few seeds: counts and texts exactly, floats to be
compared within 1e-12 relative.  Run this file as a script to print
every digest table and the work ledger, e.g. after a change that moves
numerics or work on purpose:

    PYTHONPATH=src python3 tests/_digest.py
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
from amsizer.trace import load_trace

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


def session_row(source: Path, tmp_path: Path, seed: int):
    """`amsizer run` at `seed`: (exit code, status, ledger, FoM of every
    sim_result in order; None for a simulation that was not scored)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(config_at_seed(source, tmp_path, seed))])
    best = json.loads((tmp_path / "out" / "best_point.json").read_text(encoding="utf-8"))
    foms = [e.payload.get("fom") for e in load_trace(str(tmp_path / "out" / "trace.jsonl"))
            if e.kind == "sim_result"]
    return code, best["status"], best["accounting"], foms


def assert_session_row(got, want) -> None:
    """Exit code, status and ledger exactly; every FoM within 1e-12 relative."""
    (code, status, ledger, foms), (want_code, want_status, want_ledger, want_foms) = got, want
    assert (code, status, ledger) == (want_code, want_status, want_ledger)
    assert [f is None for f in foms] == [f is None for f in want_foms]
    assert [f for f in foms if f is not None] == pytest.approx(
        [f for f in want_foms if f is not None], rel=1e-12, abs=0.0)


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


def print_digest(row, seeds, comment: str, name: str = "DIGEST") -> None:
    """Print `name = {seed: row(seed, tmp_path)}` for pasting into a digest module."""
    table = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            table[seed] = row(seed, Path(tmp))
    print(f"# {comment}")
    print(f"{name} = " + pprint.pformat(table, width=100, compact=True, sort_dicts=False))


MODULES = ("test_bo_digest", "test_de_tran_digest", "test_folded_session_digest",
           "test_two_stage_digest", "test_work_ledger")

if __name__ == "__main__":
    import importlib

    for module in MODULES:
        print(f"# --- tests/{module}.py")
        importlib.import_module(module).print_tables()
