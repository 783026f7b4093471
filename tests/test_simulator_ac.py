import dataclasses
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

from amsizer import simulator, workflow
from amsizer.config import build_state, load_config
from amsizer.metrics import extract_metrics
from amsizer.mosfet import DEFAULT_MODEL_CARDS, MosModelCard
from amsizer.netlist import parse_netlist, substitute_parameters
from amsizer.simulator import (
    AcSweep,
    SimulationError,
    SingularMatrix,
    frequency_grid,
    solve_ac,
    solve_dc,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
RUNS = ["two_stage_run.yaml", "folded_cascode_run.yaml"]

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


@pytest.mark.parametrize(
    "f_lo, f_hi, ppd", [(1.0, 1e9, 20), (10.0, 1e6, 5), (3.3, 4.1e7, 37), (42.0, 42.0, 20)]
)
def test_frequency_grid_is_cached_read_only_and_bit_identical(f_lo, f_hi, ppd):
    g = frequency_grid(f_lo, f_hi, ppd)
    n = int(np.ceil(np.log10(f_hi / f_lo) * max(ppd, 20))) + 1
    uncached = np.geomspace(f_lo, f_hi, n) if f_lo < f_hi else np.array([f_lo])
    assert g.tobytes() == uncached.tobytes()
    assert frequency_grid.__wrapped__(f_lo, f_hi, ppd).tobytes() == uncached.tobytes()
    assert frequency_grid(f_lo, f_hi, ppd) is g
    with pytest.raises(ValueError):
        g[0] = 1.0
    assert g.tobytes() == uncached.tobytes()


def test_shared_sweep_frequencies_cannot_be_mutated():
    c = parse_netlist(RC_TEXT)
    dc = solve_dc(c, {})
    a = solve_ac(c, {}, dc, "V1", "out", 1.0, 1e5)
    b = solve_ac(c, {}, dc, "V1", "out", 1.0, 1e5)
    assert a.freqs_hz is b.freqs_hz
    with pytest.raises(ValueError):
        a.freqs_hz *= 2.0


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


def test_floating_resistor_pair_is_singular():
    # x and y connect only to each other: G and C share a null vector, so
    # the pencil is singular at every frequency
    c = parse_netlist(RC_TEXT + "R2 x y 1k\n")
    dc = solve_dc(c, {})
    with pytest.raises(SingularMatrix) as exc:
        solve_ac(c, {}, dc, "V1", "out", 1.0, 1e5)
    assert exc.value.unknown == "AC system"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_transfer_is_singular(monkeypatch):
    # a pivot of S + jwT that is tiny but not zero overflows the transfer
    qz = simulator.qz

    def nearly_singular(g, c, output):
        s, t, q, z = qz(g, c, output=output)
        s[0, 0], t[0, 0] = 1e-320, 0.0
        return s, t, q, z

    monkeypatch.setattr(simulator, "qz", nearly_singular)
    c = parse_netlist(RC_TEXT)
    dc = solve_dc(c, {})
    with pytest.raises(SingularMatrix) as exc:
        solve_ac(c, {}, dc, "V1", "out", 1.0, 1e5)
    assert exc.value.unknown == "AC system"


# ---------------------------------------------------------------------------
# the QZ sweep against independent solves on the two op-amps

def _random_point(space, rng):
    # log-uniform in each range (every entry of both run configs is log-scaled)
    return {e.name: e.lo * (e.hi / e.lo) ** rng.random() for e in space.entries}


def _operating_points(run, seed, count, first=None):
    """(circuit, dc) at `first` and then seeded random points, the first
    `count` of them whose DC converges."""
    cfg = load_config(DATA / run)
    base = parse_netlist(cfg.netlist_text)
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        point = first if first is not None and not found else _random_point(cfg.space, rng)
        circuit = substitute_parameters(base, point)
        try:
            found.append((circuit, solve_dc(circuit, cfg.model_cards)))
        except SimulationError:
            continue
    return cfg, found


def _ac_system(circuit, models, dc):
    """G (linearised at dc), C, the AC right-hand side and the compiled circuit."""
    comp, x = simulator._linearisation_point(circuit, models, dc)
    g = comp.g0.copy()
    comp.stamp_mosfets(x, g)
    return g, comp.c_mat, comp.source_vector("AC"), comp


def _stacked_solve_ac(circuit, models, dc, plan):
    """The former AC path, kept as the reference: one dense complex solve
    of G + jwC per frequency, stacked into one np.linalg.solve call."""
    g, c, b, comp = _ac_system(circuit, models, dc)
    freqs = frequency_grid(plan.f_lo, plan.f_hi, plan.pts_per_decade)
    a = g[None, :, :] + 1j * 2.0 * np.pi * freqs[:, None, None] * c[None, :, :]
    rhs = np.broadcast_to(b.astype(complex)[:, None], (len(freqs), len(b), 1))
    xs = np.linalg.solve(a, rhs)[:, :, 0]
    ac_in = circuit.device(plan.input_source).values.get("AC", 1.0)
    return AcSweep(freqs_hz=freqs, transfer=xs[:, comp.node_index[plan.output_net]] / ac_in)


@pytest.mark.parametrize("run", RUNS)
def test_transfer_matches_40_digit_lu(run):
    # the range midpoint has gain (|H| > 1 in band); random points are
    # mostly dead designs with |H| far below 1e-2
    mid = load_config(DATA / run).space.midpoint()
    cfg, points = _operating_points(run, seed=11, count=3, first=mid)
    plan = build_state(cfg).ac_plan
    magnitudes = []
    mpmath.mp.dps = 40
    try:
        for circuit, dc in points:
            g, c, b, comp = _ac_system(circuit, cfg.model_cards, dc)
            out = comp.node_index[plan.output_net]
            ac_in = circuit.device(plan.input_source).values.get("AC", 1.0)
            n = len(b)
            for f in (1.0, 1e3, 1e6, 1e9):
                w = 2 * mpmath.pi * mpmath.mpf(f)
                a = mpmath.matrix(n, n)
                for i in range(n):
                    for j in range(n):
                        a[i, j] = mpmath.mpc(g[i, j], w * mpmath.mpf(c[i, j]))
                exact = complex(mpmath.lu_solve(a, mpmath.matrix(b.tolist()))[out] / ac_in)
                h = solve_ac(circuit, cfg.model_cards, dc, plan.input_source, plan.output_net, f, f)
                tol = 1e-10 if abs(exact) >= 1e-2 else 1e-6
                assert abs(h.transfer[0] - exact) <= tol * abs(exact), (f, exact)
                magnitudes.append(abs(exact))
    finally:
        mpmath.mp.dps = 15
    assert max(magnitudes) > 1.0 and min(magnitudes) < 1e-2


@pytest.mark.parametrize("run", RUNS)
def test_metrics_match_stacked_solve(run):
    cfg, points = _operating_points(run, seed=5, count=25)
    plan = build_state(cfg).ac_plan
    crossings = 0
    for circuit, dc in points:
        ac = solve_ac(
            circuit, cfg.model_cards, dc, plan.input_source, plan.output_net,
            plan.f_lo, plan.f_hi, plan.pts_per_decade,
        )
        got = extract_metrics(ac, dc)
        ref = extract_metrics(_stacked_solve_ac(circuit, cfg.model_cards, dc, plan), dc)
        assert got.keys() == ref.keys()
        for name, value in ref.items():
            assert math.isclose(got[name], value, rel_tol=1e-9), (name, got[name], value)
        crossings += ref["ugbw_hz"] > 0.0
    assert crossings > 0


def test_measure_compiles_each_point_once(monkeypatch):
    cfg = load_config(ROOT / "perfbench" / "configs" / "de_tran_run.yaml")
    state = build_state(cfg)
    assert state.tran_plan is not None
    init = simulator._Compiled.__init__
    compiles = []

    def counted(self, *args, **kwargs):
        compiles.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(simulator._Compiled, "__init__", counted)
    rng = random.Random(3)
    points = [_random_point(cfg.space, rng) for _ in range(4)]
    measured = 0
    for k, point in enumerate(points, start=1):
        try:
            dc, _, _ = workflow.measure(state, point)
        except SimulationError:
            pass
        else:
            # the caller's copy keeps no compiled circuit alive
            assert dc.compiled is None
            measured += 1
        assert len(compiles) == k
    assert measured > 0


def test_reused_compilation_is_byte_identical():
    cfg, points = _operating_points("two_stage_run.yaml", seed=9, count=3)
    plan = build_state(cfg).ac_plan
    for circuit, dc in points:
        fresh = dataclasses.replace(dc, compiled=None)
        args = (plan.input_source, plan.output_net, plan.f_lo, plan.f_hi, plan.pts_per_decade)
        reused = solve_ac(circuit, cfg.model_cards, dc, *args)
        rebuilt = solve_ac(circuit, cfg.model_cards, fresh, *args)
        assert reused.transfer.tobytes() == rebuilt.transfer.tobytes()
        stim = {plan.input_source: [(0.0, 0.0), (1e-8, 0.1)]}
        a = simulator.solve_transient(circuit, cfg.model_cards, dc, stim, 2e-7, 1e-9)
        b = simulator.solve_transient(circuit, cfg.model_cards, fresh, stim, 2e-7, 1e-9)
        for net, v in a.node_voltages.items():
            assert v.tobytes() == b.node_voltages[net].tobytes()
