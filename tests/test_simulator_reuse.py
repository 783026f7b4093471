"""A bound system evaluates its MOSFETs once per distinct Newton iterate.

`_Compiled` keeps the MOSFET values and the assembled residual and
Jacobian of the last iterate, under that iterate's exact bytes.  These
tests defeat the reuse (every call forgets what was kept) and check that
every analysis still gives bit-identical results, and count the device
evaluations that the reuse saves.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from amsizer import simulator
from amsizer.config import load_config
from amsizer.mosfet import DEFAULT_MODEL_CARDS
from amsizer.netlist import bind_parameters, parse_netlist
from amsizer.simulator import SimulationError, solve_ac, solve_dc, solve_transient

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DE_TRAN_CONFIG = ROOT / "perfbench" / "configs" / "de_tran_run.yaml"

INVERTER = (
    "V1 vdd 0 1.8\n"
    "Vin g 0 DC 0.0\n"
    "M1 d g 0 0 NMOS W=20u L=1u\n"
    "R1 vdd d 10k\n"
    "C1 d 0 1p\n"
)
INVERTER_STEP = {"Vin": [(0.0, 0.0), (0.0, 1.2)]}


def forget_kept_values(monkeypatch):
    """Make every assembly and device evaluation start from nothing kept."""
    def forgetting(method):
        def wrapped(self, *args, **kwargs):
            self._device_key = self._assembly_key = None
            return method(self, *args, **kwargs)
        return wrapped

    for name in ("residual_and_jacobian", "_device_values"):
        monkeypatch.setattr(simulator._Compiled, name, forgetting(getattr(simulator._Compiled, name)))


@pytest.fixture
def evaluations(monkeypatch):
    """Count of mos_eval calls (one per MOSFET per device evaluation)."""
    calls = [0]
    mos_eval = simulator.mos_eval

    def counted(*args):
        calls[0] += 1
        return mos_eval(*args)

    monkeypatch.setattr(simulator, "mos_eval", counted)
    return calls


def _outcomes(make, ac=None, tran=None) -> list:
    """Every result of DC, then AC and transient, on one bound system made
    by `make()`, in an exactly comparable form; an error by its message."""
    comp = make()
    try:
        dc = solve_dc(comp)
    except SimulationError as exc:
        return [type(exc).__name__, str(exc)]
    out = [repr(dc)]  # float reprs round-trip, so equal reprs mean equal bits
    if ac is not None:
        sweep = solve_ac(comp, dc, *ac)
        out += [sweep.freqs_hz.tobytes(), sweep.transfer.tobytes()]
    if tran is not None:
        try:
            trace = solve_transient(comp, dc, *tran)
        except SimulationError as exc:
            return out + [type(exc).__name__, str(exc)]
        out.append(trace.times_s.tobytes())
        out += [(net, v.tobytes()) for net, v in trace.node_voltages.items()]
    return out


def _assert_reuse_changes_nothing(monkeypatch, evaluations, cases):
    """Each case (make, ac, tran) gives the same outcomes with and
    without reuse; returns (outcomes, evaluations with reuse, without)."""
    evaluations[0] = 0
    kept = [_outcomes(*case) for case in cases]
    reused = evaluations[0]
    evaluations[0] = 0
    with monkeypatch.context() as m:
        forget_kept_values(m)
        fresh = [_outcomes(*case) for case in cases]
    assert kept == fresh
    return kept, reused, evaluations[0]


def _random_points(cfg, seed, count):
    rng = np.random.default_rng(seed)
    return [
        {e.name: float(np.exp(rng.uniform(math.log(e.lo), math.log(e.hi)))) for e in cfg.space.entries}
        for _ in range(count)
    ]


def _config_cases(config, points, tran):
    cfg = load_config(str(config))
    topology = simulator.Topology(cfg.circuit, cfg.model_cards)
    plan = cfg.ac_plan
    ac = (plan.input_source, plan.output_net, plan.f_lo, plan.f_hi, plan.pts_per_decade)
    cases = []
    for point in [cfg.space.midpoint()] + _random_points(cfg, 11, points):
        def make(point=point):
            return bind_parameters(topology, cfg.space, point)

        stimulus = None
        if tran:
            tp = cfg.tran_plan
            v0 = make().value(tp.source, "DC")
            stimulus = ({tp.source: [(0.0, v0 + tp.step_v)]}, tp.t_stop, tp.dt)
        cases.append((make, ac, stimulus))
    return cases


@pytest.mark.parametrize("run", ["two_stage_run.yaml", "folded_cascode_run.yaml"])
def test_op_amp_dc_and_ac_are_bit_identical_without_reuse(run, monkeypatch, evaluations):
    kept, reused, fresh = _assert_reuse_changes_nothing(
        monkeypatch, evaluations, _config_cases(DATA / run, 8, tran=False))
    assert reused < fresh
    assert sum(len(outcomes) == 3 for outcomes in kept) >= 6  # DC and AC solved


def test_de_tran_points_are_bit_identical_without_reuse(monkeypatch, evaluations):
    kept, reused, fresh = _assert_reuse_changes_nothing(
        monkeypatch, evaluations, _config_cases(DE_TRAN_CONFIG, 7, tran=True))
    assert reused < fresh
    assert sum(len(outcomes) > 5 for outcomes in kept) >= 6  # DC, AC and a waveform


def test_inverter_is_bit_identical_without_reuse(monkeypatch, evaluations):
    c = parse_netlist(INVERTER)
    models = {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]}
    make = lambda: simulator.Topology(c, models).bind({})  # noqa: E731
    _, reused, fresh = _assert_reuse_changes_nothing(monkeypatch, evaluations, [
        (make, ("Vin", "d", 1.0, 1e9, 20), (INVERTER_STEP, 2e-7, 1e-9)),
        (make, None, (INVERTER_STEP, 2e-7, 1e-9)),  # no AC between DC and transient
    ])
    assert reused < fresh


def test_failed_gmin_polish_is_bit_identical_without_reuse(monkeypatch, evaluations):
    # fl sees capacitors only, so no gmin-free Jacobian is regular; below
    # GMIN * 1.8 V the shunted solution fails the tolerance and the polish
    # must take a Newton step, which the singular matrix then stops
    c = parse_netlist(INVERTER + "Vb g2 0 0.7\nM2 d2 g2 0 0 NMOS W=20u L=1u\n"
                                 "R2 vdd d2 10k\nC2 fl d2 1p\n")
    monkeypatch.setattr(simulator, "NEWTON_TOL", 1e-13)
    polish = []
    newton = simulator._Compiled.newton

    def recorded(self, *args, **kwargs):
        try:
            return newton(self, *args, **kwargs)
        except simulator.SingularMatrix:
            polish.append(kwargs.get("context") == "gmin polish")
            raise

    monkeypatch.setattr(simulator._Compiled, "newton", recorded)
    make = lambda: simulator.Topology(c, DEFAULT_MODEL_CARDS).bind({})  # noqa: E731
    (kept,), _, _ = _assert_reuse_changes_nothing(monkeypatch, evaluations, [
        (make, ("Vin", "d2", 1.0, 1e9, 20), (INVERTER_STEP, 2e-7, 1e-9)),
    ])
    assert polish.count(True) == 2  # once with reuse, once without
    assert len(kept) > 5


def test_transient_nonconvergence_raises_the_same_without_reuse(monkeypatch, evaluations):
    c = parse_netlist(INVERTER)
    models = {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]}
    monkeypatch.setattr(simulator, "TRAN_MAX_ITERS", 1)
    make = lambda: simulator.Topology(c, models).bind({})  # noqa: E731
    case = (make, None, (INVERTER_STEP, 2e-7, 1e-9))
    (kept,), _, _ = _assert_reuse_changes_nothing(monkeypatch, evaluations, [case])
    assert kept[1] == "NonConvergence"
    assert kept[2].startswith("Newton did not converge during transient step 1 (t = 1e-09 s)")


def test_kept_assembly_cannot_be_changed_through_returned_arrays():
    cfg = load_config(str(DATA / "two_stage_run.yaml"))
    topology = simulator.Topology(cfg.circuit, cfg.model_cards)
    comp = bind_parameters(topology, cfg.space, cfg.space.midpoint())
    x = np.linspace(0.0, 1.8, comp.topology.n_unknowns)
    f0, j0 = (a.copy() for a in comp.residual_and_jacobian(x, comp.b_dc, 0.0))
    for _ in range(2):  # a kept result, then that result handed out again
        f, j = comp.residual_and_jacobian(x, comp.b_dc, 0.0)
        assert f.tobytes() == f0.tobytes() and j.tobytes() == j0.tobytes()
        for a in (f, j, comp._device_values(x)):
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0
    _, j_gmin = comp.residual_and_jacobian(x, comp.b_dc, simulator.GMIN)  # another key
    assert j_gmin.tobytes() != j0.tobytes()


def test_transient_device_evaluations_equal_its_newton_iterations(monkeypatch, evaluations):
    """Each step's first iterate is where the previous step (or the DC and
    AC before the first step) stopped, so it evaluates no MOSFET again."""
    cfg = load_config(str(DE_TRAN_CONFIG))
    topology = simulator.Topology(cfg.circuit, cfg.model_cards)
    plan, tp = cfg.ac_plan, cfg.tran_plan
    newton = simulator._Compiled.newton
    iterations = []

    def counted(self, *args, **kwargs):
        x, iters, residual = newton(self, *args, **kwargs)
        iterations.append(iters)
        return x, iters, residual

    monkeypatch.setattr(simulator._Compiled, "newton", counted)

    def transient_counts(point):
        bound = bind_parameters(topology, cfg.space, point)
        dc = solve_dc(bound)
        solve_ac(bound, dc, plan.input_source, plan.output_net,
                 plan.f_lo, plan.f_hi, plan.pts_per_decade)
        stimulus = {tp.source: [(0.0, bound.value(tp.source, "DC") + tp.step_v)]}
        evaluations[0] = 0
        iterations.clear()
        solve_transient(bound, dc, stimulus, tp.t_stop, tp.dt)
        return evaluations[0] // len(topology.mosfets), sum(iterations), len(iterations)

    checked = 0
    for point in _random_points(cfg, 7, 8):
        try:
            evals, iters, steps = transient_counts(point)
        except SimulationError:
            continue
        assert evals == iters > 0
        with monkeypatch.context() as m:
            forget_kept_values(m)
            assert transient_counts(point) == (iters + steps, iters, steps)
        checked += 1
    assert checked >= 6
