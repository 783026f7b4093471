"""The per-layer benchmark wraps amsizer at the names its callers bind.

`perfbench/layers.py` patches attributes such as
``amsizer.workflow.solve_dc`` and looks each one up before the first
call, so moving a call site away from those names breaks traced runs.
These tests resolve every patch point and check that the optimizer-only
baseline still reaches the simulator through them.
"""

import importlib.util
from pathlib import Path

import amsizer.optimizer
import amsizer.workflow
from amsizer.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DE_TRAN = ROOT / "perfbench" / "configs" / "de_tran_run.yaml"


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


def test_optimize_reaches_workflow_solve_ac(monkeypatch, capsys):
    solve_dc, solve_ac = amsizer.workflow.solve_dc, amsizer.workflow.solve_ac
    solved, swept = [], []

    def counted_dc(*args, **kwargs):
        solved.append(solve_dc(*args, **kwargs))
        return solved[-1]

    def counted_ac(system, dc, *args, **kwargs):
        swept.append(dc)
        return solve_ac(system, dc, *args, **kwargs)

    monkeypatch.setattr(amsizer.workflow, "solve_dc", counted_dc)
    monkeypatch.setattr(amsizer.workflow, "solve_ac", counted_ac)
    code = main(["optimize", str(DATA / "two_stage_run.yaml"), "--algo", "de", "--budget", "4"])
    capsys.readouterr()
    assert code == 0
    # each point whose DC converged is swept exactly once, in order
    assert swept and [id(dc) for dc in swept] == [id(dc) for dc in solved]


def test_optimize_reaches_workflow_solve_transient(monkeypatch, capsys):
    # the traced benchmark needs simulator.tran on de-tran
    solve_ac, solve_transient = amsizer.workflow.solve_ac, amsizer.workflow.solve_transient
    swept, stepped = [], []

    def counted_ac(system, dc, *args, **kwargs):
        ac = solve_ac(system, dc, *args, **kwargs)
        swept.append(dc)  # only once DC and AC have both succeeded
        return ac

    def counted_transient(system, dc, *args, **kwargs):
        stepped.append(dc)
        return solve_transient(system, dc, *args, **kwargs)

    monkeypatch.setattr(amsizer.workflow, "solve_ac", counted_ac)
    monkeypatch.setattr(amsizer.workflow, "solve_transient", counted_transient)
    code = main(["optimize", str(DE_TRAN), "--algo", "de", "--budget", "4"])
    capsys.readouterr()
    assert code == 0
    # each point whose DC and AC succeeded is stepped exactly once, in order
    assert swept and [id(dc) for dc in stepped] == [id(dc) for dc in swept]


def test_bo_reaches_optimizer_gp_predict_and_ei(monkeypatch, capsys):
    # the traced benchmark needs gp.predict and optimizer.ei on agentic-folded
    # gp_predict returns (mean, var) and expected_improvement one array, a row each
    rows = {"gp_predict": 0, "expected_improvement": 0}
    first_array = {"gp_predict": lambda out: out[0], "expected_improvement": lambda out: out}

    def counter(name):
        original = getattr(amsizer.optimizer, name)

        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            rows[name] += len(first_array[name](out))
            return out
        return counted

    for name in rows:
        monkeypatch.setattr(amsizer.optimizer, name, counter(name))
    # 10 parameters: the first 20 points are random, the last 4 are BO proposals
    code = main(["optimize", str(DATA / "folded_cascode_run.yaml"), "--algo", "bo", "--budget", "24"])
    capsys.readouterr()
    assert code == 0
    # every predicted row is scored once, though EI scores a refinement round's rows together
    assert rows["gp_predict"] > 0
    assert rows["gp_predict"] == rows["expected_improvement"]
