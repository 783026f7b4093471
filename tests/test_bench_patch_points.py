"""The per-layer benchmark wraps amsizer at the names its callers bind.

`perfbench/layers.py` patches attributes such as
``amsizer.workflow.solve_dc`` and looks each one up before the first
call, so moving a call site away from those names breaks traced runs.
These tests resolve every patch point and check that the optimizer-only
baseline still reaches the simulator through them.
"""

import importlib.util
from pathlib import Path

import amsizer.workflow
from amsizer.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    layers = load_layers()
    points = [p for group in layers.PATCH_POINTS.values() for p in group]
    assert points
    for point in points:
        owner, attr = layers._resolve(point)
        assert callable(getattr(owner, attr)), point


def test_optimize_reaches_workflow_solve_dc(monkeypatch, capsys):
    original = amsizer.workflow.solve_dc
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(amsizer.workflow, "solve_dc", counted)
    code = main(["optimize", str(DATA / "two_stage_run.yaml"), "--algo", "de", "--budget", "4"])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 4
