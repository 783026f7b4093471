import math

import numpy as np
import pytest

from amsizer.mosfet import DEFAULT_MODEL_CARDS, MosModelCard
from amsizer.netlist import parse_netlist
from amsizer.simulator import frequency_grid, solve_ac, solve_dc

RC_TEXT = "V1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1u\n"
F_CORNER = 1.0 / (2 * math.pi * 1e3 * 1e-6)  # 159.155 Hz


def test_rc_lowpass_at_corner():
    c = parse_netlist(RC_TEXT)
    dc = solve_dc(c, {})
    ac = solve_ac(c, {}, dc, "V1", "out", F_CORNER, F_CORNER)
    assert len(ac.freqs_hz) == 1
    h = ac.transfer[0]
    assert 20 * math.log10(abs(h)) == pytest.approx(-3.0103, abs=0.01)
    assert math.degrees(np.angle(h)) == pytest.approx(-45.0, abs=0.1)


def test_rc_lowpass_full_sweep_matches_closed_form():
    c = parse_netlist(RC_TEXT)
    dc = solve_dc(c, {})
    ac = solve_ac(c, {}, dc, "V1", "out", 1.0, 1e5)
    expected = 1.0 / (1.0 + 1j * ac.freqs_hz / F_CORNER)
    assert np.allclose(ac.transfer, expected, rtol=1e-9)


def test_frequency_grid_density_and_monotonicity():
    g = frequency_grid(10.0, 1e6, 20)
    assert np.all(np.diff(g) > 0)
    assert g[0] == pytest.approx(10.0)
    assert g[-1] == pytest.approx(1e6)
    # at least 20 points per decade over 5 decades
    assert len(g) >= 101
    # requests below the floor are raised to it
    assert len(frequency_grid(10.0, 1e6, 5)) >= 101


def test_frequency_grid_single_point():
    g = frequency_grid(42.0, 42.0)
    assert list(g) == [42.0]


def test_frequency_grid_rejects_bad_ranges():
    with pytest.raises(ValueError):
        frequency_grid(0.0, 10.0)
    with pytest.raises(ValueError):
        frequency_grid(100.0, 10.0)


def test_common_source_low_frequency_gain():
    """|H(f_lo)| must equal gm/(gds + 1/RL) from the DC operating point."""
    text = (
        "V1 vdd 0 1.8\n"
        "Vin g 0 DC 0.7 AC 1\n"
        "M1 d g 0 0 NMOS W=20u L=1u\n"
        "R1 vdd d 5k\n"
    )
    c = parse_netlist(text)
    models = {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]}
    dc = solve_dc(c, models)
    op = dc.transistor_ops["M1"]
    assert op["region"] == "saturation"
    expected = op["gm_S"] / (op["gds_S"] + 1.0 / 5e3)
    ac = solve_ac(c, models, dc, "Vin", "d", 1.0, 1e3)
    assert abs(ac.transfer[0]) == pytest.approx(expected, rel=0.01)
    # inverting stage: phase near 180 degrees at low frequency
    assert abs(math.degrees(np.angle(ac.transfer[0]))) == pytest.approx(180.0, abs=1.0)


def _five_t_ota(vip: float) -> str:
    # the five-transistor OTA of the DC tests: NMOS pair, PMOS mirror load
    return (
        "V1 vdd 0 1.8\n"
        f"Vip inp 0 DC {vip!r} AC 1\nVim inm 0 0.9\n"
        "M1 x inp t 0 NMOS W=20u L=1u\n"
        "M2 out inm t 0 NMOS W=20u L=1u\n"
        "M3 x x vdd vdd PMOS W=10u L=1u\n"
        "M4 out x vdd vdd PMOS W=10u L=1u\n"
        "M5 t bias 0 0 NMOS W=10u L=1u\n"
        "Vb bias 0 0.7\n"
    )


def test_ota_small_signal_gain_matches_dc_difference():
    """The AC conductance stamp agrees with differentiating the DC solve."""
    models = dict(DEFAULT_MODEL_CARDS)
    c = parse_netlist(_five_t_ota(0.9))
    dc = solve_dc(c, models)
    assert all(op["region"] == "saturation" for op in dc.transistor_ops.values())
    ac = solve_ac(c, models, dc, "Vip", "out", 1.0, 10.0)
    delta = 1e-4
    v_hi = solve_dc(parse_netlist(_five_t_ota(0.9 + delta)), models).node_voltages["out"]
    v_lo = solve_dc(parse_netlist(_five_t_ota(0.9 - delta)), models).node_voltages["out"]
    dc_gain = (v_hi - v_lo) / (2 * delta)
    assert dc_gain > 10.0
    assert ac.transfer[0].real == pytest.approx(dc_gain, rel=0.01)
    assert abs(ac.transfer[0].imag) < 1e-3 * abs(ac.transfer[0].real)


def test_ac_linearity_in_input_magnitude():
    c1 = parse_netlist(RC_TEXT)
    c2 = parse_netlist(RC_TEXT.replace("AC 1", "AC 2"))
    dc1 = solve_dc(c1, {})
    dc2 = solve_dc(c2, {})
    ac1 = solve_ac(c1, {}, dc1, "V1", "out", 10.0, 1e4)
    ac2 = solve_ac(c2, {}, dc2, "V1", "out", 10.0, 1e4)
    # output doubles; normalized transfer is identical
    vout1 = ac1.transfer * 1.0
    vout2 = ac2.transfer * 2.0
    assert np.allclose(vout2, 2 * vout1, rtol=1e-12)
    assert np.allclose(ac1.transfer, ac2.transfer, rtol=1e-12)


def test_ac_missing_ac_value_defaults_to_unity():
    c = parse_netlist("V1 in 0 DC 0\nR1 in out 1k\nC1 out 0 1u\n")
    dc = solve_dc(c, {})
    ac = solve_ac(c, {}, dc, "V1", "out", F_CORNER, F_CORNER)
    # no AC stimulus anywhere: output is zero
    assert abs(ac.transfer[0]) == 0.0


def test_ac_current_source_input():
    # 1 A AC into a 1k resistor reads 1000 V/A transimpedance
    c = parse_netlist("I1 0 out DC 0 AC 1\nR1 out 0 1k\n")
    dc = solve_dc(c, {})
    ac = solve_ac(c, {}, dc, "I1", "out", 100.0, 100.0)
    assert ac.transfer[0] == pytest.approx(1000.0)


def test_ac_unknown_output_net():
    c = parse_netlist(RC_TEXT)
    dc = solve_dc(c, {})
    with pytest.raises(Exception) as exc:
        solve_ac(c, {}, dc, "V1", "nope", 1.0, 10.0)
    assert "nope" in str(exc.value)


def test_ac_cgs_creates_input_pole():
    """Gate-drive RC from Cgs: corner where |Zin path| rolls the gate voltage."""
    card = MosModelCard("NMOS", vth=0.4, kprime=200e-6, lam=0.0, cox_area=8e-3)
    w, l = 100e-6, 1e-6
    cgs = (2 / 3) * w * l * card.cox_area
    rg = 10e3
    text = (
        "V1 vdd 0 1.8\n"
        "Vin src 0 DC 0.7 AC 1\n"
        "R2 src g 10k\n"
        f"M1 d g 0 0 NMOS W=100u L=1u\n"
        "R1 vdd d 1k\n"
    )
    c = parse_netlist(text)
    dc = solve_dc(c, {"NMOS": card})
    f_pole = 1.0 / (2 * math.pi * rg * cgs)
    ac = solve_ac(c, {"NMOS": card}, dc, "Vin", "d", f_pole, f_pole)
    lo = solve_ac(c, {"NMOS": card}, dc, "Vin", "d", f_pole / 1e3, f_pole / 1e3)
    ratio = abs(ac.transfer[0]) / abs(lo.transfer[0])
    assert ratio == pytest.approx(1 / math.sqrt(2), rel=1e-3)
