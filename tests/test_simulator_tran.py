import math

import numpy as np
import pytest

from amsizer.mosfet import DEFAULT_MODEL_CARDS
from amsizer.netlist import parse_netlist
from amsizer.simulator import SimulationError, _pwl_value, solve_dc, solve_transient


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
    dc = solve_dc(c, {})
    rc = 1e-3
    dt = rc / 1000
    trace = solve_transient(c, {}, dc, {"V1": [(0.0, 0.0), (0.0, 1.0)]}, t_stop=rc, dt=dt)
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
    dc = solve_dc(c, models)
    trace = solve_transient(c, models, dc, {}, t_stop=1e-6, dt=1e-8)
    for net, v0 in dc.node_voltages.items():
        assert np.max(np.abs(trace.node_voltages[net] - v0)) <= 1e-9, net


def test_constant_override_equal_to_dc_also_holds():
    c = parse_netlist("V1 in 0 DC 0.5\nR1 in out 1k\nC1 out 0 1n\n")
    dc = solve_dc(c, {})
    trace = solve_transient(c, {}, dc, {"V1": [(0.0, 0.5)]}, t_stop=1e-6, dt=1e-8)
    assert np.max(np.abs(trace.node_voltages["out"] - 0.5)) <= 1e-9


def test_current_source_step():
    # 1 mA -> 2 mA into R || C: v(t) = 2 V - 1 V * exp(-t / RC)
    c = parse_netlist("I1 0 out DC 1m\nR1 out 0 1k\nC1 out 0 1u\n")
    dc = solve_dc(c, {})
    assert dc.node_voltages["out"] == pytest.approx(1.0, abs=1e-9)
    rc = 1e-3
    trace = solve_transient(c, {}, dc, {"I1": [(0.0, 2e-3)]}, t_stop=rc, dt=rc / 1000)
    assert trace.node_voltages["out"][-1] == pytest.approx(2 - math.exp(-1), abs=1e-3)


def test_ramp_stimulus_tracks_input():
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1\nC1 out 0 1p\n")
    dc = solve_dc(c, {})
    # slow ramp: with RC = 1 ps the output tracks the ramp closely
    trace = solve_transient(
        c, {}, dc, {"V1": [(0.0, 0.0), (1e-6, 1.0)]}, t_stop=1e-6, dt=1e-8
    )
    v_end = trace.node_voltages["out"][-1]
    assert v_end == pytest.approx(1.0, abs=1e-4)
    mid = len(trace.times_s) // 2
    assert trace.node_voltages["out"][mid] == pytest.approx(0.5, abs=1e-3)


def test_transient_validates_arguments():
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1k\nC1 out 0 1u\n")
    dc = solve_dc(c, {})
    with pytest.raises(ValueError):
        solve_transient(c, {}, dc, {}, t_stop=1.0, dt=0.0)
    with pytest.raises(ValueError):
        solve_transient(c, {}, dc, {}, t_stop=1e-9, dt=1e-6)
    with pytest.raises(Exception) as exc:
        solve_transient(c, {}, dc, {"R1": [(0.0, 1.0)]}, t_stop=1e-6, dt=1e-7)
    assert "R1" in str(exc.value)
    with pytest.raises(SimulationError, match="'VX' is not an independent source"):
        solve_transient(c, {}, dc, {"VX": [(0.0, 1.0)]}, t_stop=1e-6, dt=1e-7)


def test_mosfet_inverter_step():
    """NMOS inverter driven past threshold pulls its output low."""
    text = (
        "V1 vdd 0 1.8\n"
        "Vin g 0 DC 0.0\n"
        "M1 d g 0 0 NMOS W=20u L=1u\n"
        "R1 vdd d 10k\n"
        "C1 d 0 1p\n"
    )
    c = parse_netlist(text)
    models = {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]}
    dc = solve_dc(c, models)
    assert dc.node_voltages["d"] == pytest.approx(1.8, abs=1e-6)
    trace = solve_transient(
        c, models, dc, {"Vin": [(0.0, 0.0), (0.0, 1.2)]}, t_stop=2e-7, dt=1e-9
    )
    v_final = trace.node_voltages["d"][-1]
    # closed-form final value: triode load line sits well below 0.2 V
    assert v_final < 0.2
    # output is monotone falling after the step
    out = trace.node_voltages["d"]
    assert np.all(np.diff(out[1:]) <= 1e-9)
