import math
from pathlib import Path

import numpy as np
import pytest

from amsizer import simulator
from amsizer.config import load_config
from amsizer.mosfet import DEFAULT_MODEL_CARDS
from amsizer.netlist import bind_parameters, parse_netlist
from amsizer.simulator import (
    NonConvergence,
    SimulationError,
    _pwl_value,
    solve_dc,
    solve_transient,
)


def _bound(circuit, models):
    """The MNA system of a circuit without placeholders."""
    return simulator.Topology(circuit, models).bind({})


DE_TRAN_CONFIG = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "de_tran_run.yaml"

INVERTER = (
    "V1 vdd 0 1.8\n"
    "Vin g 0 DC 0.0\n"
    "M1 d g 0 0 NMOS W=20u L=1u\n"
    "R1 vdd d 10k\n"
    "C1 d 0 1p\n"
)


def test_pwl_lookup():
    pts = [(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)]
    assert _pwl_value(pts, -1.0) == 0.0
    assert _pwl_value(pts, 0.5) == 1.0
    assert _pwl_value(pts, 2.0) == 2.0
    assert _pwl_value(pts, 9.0) == 2.0


def test_pwl_ideal_step_via_duplicate_time():
    pts = [(0.0, 0.0), (1e-6, 0.0), (1e-6, 1.0)]
    assert _pwl_value(pts, 0.5e-6) == 0.0
    assert _pwl_value(pts, 1e-6) == 1.0
    assert _pwl_value(pts, 2e-6) == 1.0


def test_rc_step_response():
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1k\nC1 out 0 1u\n")
    dc = solve_dc(_bound(c, {}))
    rc = 1e-3
    dt = rc / 1000
    trace = solve_transient(
        _bound(c, {}), dc, {"V1": [(0.0, 0.0), (0.0, 1.0)]}, t_stop=rc, dt=dt
    )
    assert trace.times_s[0] == 0.0
    assert np.allclose(np.diff(trace.times_s), dt)
    v_at_rc = trace.node_voltages["out"][-1]
    assert v_at_rc == pytest.approx(1 - math.exp(-1), abs=1e-3)
    # full curve follows the exponential to first order
    expected = 1 - np.exp(-trace.times_s / rc)
    assert np.max(np.abs(trace.node_voltages["out"] - expected)) < 2e-3


def test_flat_stimulus_holds_dc():
    text = (
        "V1 vdd 0 1.8\n"
        "Vin g 0 DC 0.7\n"
        "M1 d g 0 0 NMOS W=20u L=1u\n"
        "R1 vdd d 5k\n"
        "C1 d 0 1p\n"
    )
    c = parse_netlist(text)
    models = {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]}
    dc = solve_dc(_bound(c, models))
    trace = solve_transient(_bound(c, models), dc, {}, t_stop=1e-6, dt=1e-8)
    for net, v0 in dc.node_voltages.items():
        assert np.max(np.abs(trace.node_voltages[net] - v0)) <= 1e-9, net


def test_constant_override_equal_to_dc_also_holds():
    c = parse_netlist("V1 in 0 DC 0.5\nR1 in out 1k\nC1 out 0 1n\n")
    dc = solve_dc(_bound(c, {}))
    trace = solve_transient(_bound(c, {}), dc, {"V1": [(0.0, 0.5)]}, t_stop=1e-6, dt=1e-8)
    assert np.max(np.abs(trace.node_voltages["out"] - 0.5)) <= 1e-9


def test_current_source_step():
    # 1 mA -> 2 mA into R || C: v(t) = 2 V - 1 V * exp(-t / RC)
    c = parse_netlist("I1 0 out DC 1m\nR1 out 0 1k\nC1 out 0 1u\n")
    dc = solve_dc(_bound(c, {}))
    assert dc.node_voltages["out"] == pytest.approx(1.0, abs=1e-9)
    rc = 1e-3
    trace = solve_transient(_bound(c, {}), dc, {"I1": [(0.0, 2e-3)]}, t_stop=rc, dt=rc / 1000)
    assert trace.node_voltages["out"][-1] == pytest.approx(2 - math.exp(-1), abs=1e-3)


def test_ramp_stimulus_tracks_input():
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1\nC1 out 0 1p\n")
    dc = solve_dc(_bound(c, {}))
    # slow ramp: with RC = 1 ps the output tracks the ramp closely
    trace = solve_transient(
        _bound(c, {}), dc, {"V1": [(0.0, 0.0), (1e-6, 1.0)]}, t_stop=1e-6, dt=1e-8
    )
    v_end = trace.node_voltages["out"][-1]
    assert v_end == pytest.approx(1.0, abs=1e-4)
    mid = len(trace.times_s) // 2
    assert trace.node_voltages["out"][mid] == pytest.approx(0.5, abs=1e-3)


def test_transient_validates_arguments():
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1k\nC1 out 0 1u\n")
    dc = solve_dc(_bound(c, {}))
    with pytest.raises(ValueError):
        solve_transient(_bound(c, {}), dc, {}, t_stop=1.0, dt=0.0)
    with pytest.raises(ValueError):
        solve_transient(_bound(c, {}), dc, {}, t_stop=1e-9, dt=1e-6)
    with pytest.raises(Exception) as exc:
        solve_transient(_bound(c, {}), dc, {"R1": [(0.0, 1.0)]}, t_stop=1e-6, dt=1e-7)
    assert "R1" in str(exc.value)
    with pytest.raises(SimulationError, match="'VX' is not an independent source"):
        solve_transient(_bound(c, {}), dc, {"VX": [(0.0, 1.0)]}, t_stop=1e-6, dt=1e-7)


def test_mosfet_inverter_step():
    """NMOS inverter driven past threshold pulls its output low."""
    c = parse_netlist(INVERTER)
    models = {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]}
    dc = solve_dc(_bound(c, models))
    assert dc.node_voltages["d"] == pytest.approx(1.8, abs=1e-6)
    trace = solve_transient(
        _bound(c, models), dc, {"Vin": [(0.0, 0.0), (0.0, 1.2)]}, t_stop=2e-7, dt=1e-9
    )
    v_final = trace.node_voltages["d"][-1]
    # closed-form final value: triode load line sits well below 0.2 V
    assert v_final < 0.2
    # output is monotone falling after the step
    out = trace.node_voltages["d"]
    assert np.all(np.diff(out[1:]) <= 1e-9)


# early stop: once a step at or after the last breakpoint needs no Newton
# update, the rest of the waveform is filled with its state.  The oracle is
# the same stimulus with one more breakpoint (t_stop, final value), which
# moves the settle time to t_stop and so runs every step.

def _full_length(stimulus, t_stop):
    return {sid: list(points) + [(t_stop, points[-1][1])] for sid, points in stimulus.items()}


@pytest.fixture
def newton_calls(monkeypatch):
    calls = []
    newton = simulator._Compiled.newton

    def counted(self, *args, **kwargs):
        calls.append(1)
        return newton(self, *args, **kwargs)

    monkeypatch.setattr(simulator._Compiled, "newton", counted)
    return calls


def _differential(calls, system, stimulus, t_stop, dt, oracle=None):
    """Run the transient of bound `system` with and without a chance to stop
    early; assert the waveforms are bit-identical and return (early, full)
    Newton call counts."""
    dc = solve_dc(system)
    calls.clear()
    early = solve_transient(system, dc, stimulus, t_stop, dt)
    n_early = len(calls)
    calls.clear()
    full = solve_transient(system, dc, oracle or _full_length(stimulus, t_stop), t_stop, dt)
    n_full = len(calls)
    assert n_full == len(full.times_s) - 1
    assert np.array_equal(early.times_s, full.times_s)
    assert early.node_voltages.keys() == full.node_voltages.keys()
    for net, v in full.node_voltages.items():
        assert np.array_equal(early.node_voltages[net], v), net
    return n_early, n_full


def test_settled_rc_stops_early_with_identical_waveform(newton_calls):
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1k\nC1 out 0 1n\n")
    n_early, n_full = _differential(
        newton_calls, _bound(c, {}), {"V1": [(0.0, 0.0), (0.0, 1.0)]}, t_stop=50e-6, dt=1e-7
    )
    assert n_early < n_full


def test_unsettled_rc_runs_every_step(newton_calls):
    # the slow RC of test_rc_step_response is still moving at t_stop
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1k\nC1 out 0 1u\n")
    n_early, n_full = _differential(
        newton_calls, _bound(c, {}), {"V1": [(0.0, 0.0), (0.0, 1.0)]}, t_stop=1e-3, dt=1e-6
    )
    assert n_early == n_full


def test_inverter_step_stops_early_with_identical_waveform(newton_calls):
    c = parse_netlist(INVERTER)
    models = {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]}
    n_early, n_full = _differential(
        newton_calls, _bound(c, models), {"Vin": [(0.0, 0.0), (0.0, 1.2)]}, t_stop=2e-7, dt=1e-9
    )
    assert n_early < n_full


def test_current_source_drive_stops_early_with_identical_waveform(newton_calls):
    c = parse_netlist("I1 0 out DC 1m\nR1 out 0 1k\nC1 out 0 1n\n")
    n_early, n_full = _differential(
        newton_calls, _bound(c, {}), {"I1": [(0.0, 2e-3)]}, t_stop=50e-6, dt=1e-7
    )
    assert n_early < n_full


def test_empty_stimulus_stops_at_once_with_identical_waveform(newton_calls):
    # the oracle drives V1 at its own DC value up to t_stop, which leaves
    # the right-hand side as it is but keeps every step
    c = parse_netlist("V1 in 0 DC 0.5\nR1 in out 1k\nC1 out 0 1n\n")
    n_early, n_full = _differential(
        newton_calls, _bound(c, {}), {}, t_stop=1e-6, dt=1e-8,
        oracle={"V1": [(0.0, 0.5), (1e-6, 0.5)]},
    )
    assert n_early == 1 < n_full


def test_quiescent_first_half_does_not_stop_the_loop(newton_calls):
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1k\nC1 out 0 1n\n")
    t_stop, dt = 50e-6, 1e-7
    half = t_stop / 2
    n_early, n_full = _differential(
        newton_calls, _bound(c, {}), {"V1": [(0.0, 0.0), (half, 0.0), (half, 1.0)]}, t_stop, dt
    )
    assert n_full // 2 < n_early < n_full


def test_de_tran_points_stop_early_with_identical_waveforms(newton_calls):
    cfg = load_config(str(DE_TRAN_CONFIG))
    topology = simulator.Topology(cfg.circuit, cfg.model_cards)
    tp = cfg.tran_plan
    rng = np.random.default_rng(7)
    compared = stopped = 0
    for _ in range(6):
        point = {
            e.name: float(np.exp(rng.uniform(math.log(e.lo), math.log(e.hi))))
            for e in cfg.space.entries
        }
        bound = bind_parameters(topology, cfg.space, point)
        v0 = bound.value(tp.source, "DC")
        stimulus = {tp.source: [(0.0, v0 + tp.step_v)]}
        try:
            n_early, n_full = _differential(
                newton_calls, bound, stimulus, tp.t_stop, tp.dt
            )
        except SimulationError:
            continue
        compared += 1
        stopped += n_early < n_full
    assert compared >= 4
    assert stopped >= 3


def test_nonconvergence_before_settling_still_raises(monkeypatch):
    c = parse_netlist(INVERTER)
    models = {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]}
    dc = solve_dc(_bound(c, models))
    monkeypatch.setattr(simulator, "TRAN_MAX_ITERS", 1)
    with pytest.raises(NonConvergence, match=r"during transient step 1 \(t = 1e-09 s\)"):
        solve_transient(
            _bound(c, models), dc, {"Vin": [(0.0, 0.0), (0.0, 1.2)]}, t_stop=2e-7, dt=1e-9
        )
