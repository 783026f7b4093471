import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amsizer.metrics import (
    METRIC_NAMES,
    MetricReport,
    Spec,
    compute_fom,
    evaluate,
    extract_metrics,
    phase_margin_deg,
    slew_rate_vps,
    unity_gain_bandwidth,
    validate_specs,
)
from amsizer.netlist import parse_netlist
from amsizer.simulator import AcSweep, TransientTrace, solve_ac, solve_dc


def one_pole_sweep(a0=100.0, fp=1e3, f_lo=1e-3, f_hi=1e7, ppd=40):
    n = int(math.ceil(math.log10(f_hi / f_lo) * ppd)) + 1
    f = np.geomspace(f_lo, f_hi, n)
    h = a0 / (1.0 + 1j * f / fp)
    return AcSweep(freqs_hz=f, transfer=h)


def test_one_pole_gain_is_exact():
    ac = one_pole_sweep()
    values = extract_metrics(ac, _dc_stub())
    assert values["gain_db"] == pytest.approx(40.0, abs=1e-9)


def test_one_pole_ugbw_and_phase_margin():
    ac = one_pole_sweep()
    values = extract_metrics(ac, _dc_stub())
    assert values["ugbw_hz"] == pytest.approx(100e3, rel=0.02)
    assert values["phase_margin_deg"] == pytest.approx(90.0, abs=2.0)


def test_ugbw_exact_at_grid_point():
    f = np.array([10.0, 100.0, 1000.0])
    h = np.array([10.0, 1.0, 0.1]) + 0j
    ac = AcSweep(freqs_hz=f, transfer=h)
    assert unity_gain_bandwidth(ac) == 100.0


def test_ugbw_zero_when_always_below_unity():
    f = np.geomspace(1.0, 1e6, 121)
    ac = AcSweep(freqs_hz=f, transfer=0.5 / (1.0 + 1j * f / 1e3))
    values = extract_metrics(ac, _dc_stub())
    assert values["ugbw_hz"] == 0.0
    assert "phase_margin_deg" not in values


def _ugbw_reference_loop(ac: AcSweep) -> float:
    """The former per-sample loop of unity_gain_bandwidth, kept as the reference."""
    mags = np.abs(ac.transfer)
    if len(mags) < 2:
        return float(ac.freqs_hz[0]) if len(mags) == 1 and mags[0] == 1.0 else 0.0
    with np.errstate(divide="ignore"):
        y = 20.0 * np.log10(mags)
    x = np.log10(ac.freqs_hz)
    for i in range(len(y) - 1):
        if y[i] >= 0.0 and y[i + 1] < 0.0:
            if y[i] == 0.0:
                return float(ac.freqs_hz[i])
            x_star = x[i] + (0.0 - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
            return float(10.0 ** x_star)
    return 0.0


# |H| samples: exact unity (0 dB), exact zero (-inf dB), either side of 0 dB
_magnitudes = st.one_of(
    st.sampled_from([1.0, 0.0]),
    st.floats(1e-6, 1e6),
    st.floats(0.5, 2.0),
)


@given(
    mags=st.lists(_magnitudes, min_size=1, max_size=30),
    signs=st.lists(st.sampled_from([1.0, -1.0, 1j, -1j]), min_size=30, max_size=30),
    f_lo=st.floats(1e-3, 1e3),
    decades=st.floats(0.5, 9.0),
)
def test_ugbw_matches_reference_loop(mags, signs, f_lo, decades):
    # a unit phasor keeps |H| exact, so 1.0 stays exactly 0 dB
    h = np.array([m * s for m, s in zip(mags, signs)], dtype=complex)
    f = np.geomspace(f_lo, f_lo * 10.0 ** decades, len(h))
    ac = AcSweep(freqs_hz=f, transfer=h)
    assert unity_gain_bandwidth(ac).hex() == _ugbw_reference_loop(ac).hex()


def test_ugbw_edge_cases_match_reference_loop():
    f = np.array([10.0, 100.0, 1000.0, 1e4])
    for h in ([1.0], [2.0], [0.0], [1.0, 1.0, 1.0, 0.5], [2.0, 1.0, 1.0, 0.5],
              [0.5, 0.5, 0.5, 0.5], [2.0, 0.5, 2.0, 0.5], [0.0, 2.0, 0.0, 2.0]):
        ac = AcSweep(freqs_hz=f[: len(h)], transfer=np.array(h, dtype=complex))
        assert unity_gain_bandwidth(ac).hex() == _ugbw_reference_loop(ac).hex(), h


def test_phase_margin_uses_unwrapped_phase():
    # two-pole system: phase dives toward -180 inside the sweep, so the
    # principal-value angle wraps and only unwrapping gives the true margin
    p1, p2, a0 = 1e3, 1e4, 1e4
    f = np.geomspace(1.0, 1e8, 161)
    h = a0 / ((1.0 + 1j * f / p1) * (1.0 + 1j * f / p2))
    ac = AcSweep(freqs_hz=f, transfer=h)
    ugbw = unity_gain_bandwidth(ac)
    pm = phase_margin_deg(ac, ugbw)
    expected = 180.0 - math.degrees(math.atan(ugbw / p1) + math.atan(ugbw / p2))
    assert pm == pytest.approx(expected, abs=0.1)
    assert 0.0 < pm < 10.0


def _dc_stub(power=None):
    from amsizer.simulator import DcSolution

    return DcSolution(
        node_voltages={"0": 0.0},
        branch_currents={},
        transistor_ops={},
        source_power_w=power or {},
    )


def test_power_from_divider():
    c = parse_netlist("V1 in 0 1\nR1 in mid 1k\nR2 mid 0 1k\n")
    dc = solve_dc(c, {})
    ac = solve_ac(c, {}, dc, "V1", "mid", 100.0, 100.0)
    values = extract_metrics(ac, dc)
    assert values["power_w"] == pytest.approx(0.5e-3, abs=1e-12)


def test_slew_rate_from_triangle():
    tr = TransientTrace(
        times_s=np.array([0.0, 1.0, 2.0, 3.0]),
        node_voltages={"out": np.array([0.0, 1.0, 0.5, 0.5])},
    )
    assert slew_rate_vps(tr, "out") == pytest.approx(1.0)
    values = extract_metrics(one_pole_sweep(), _dc_stub(), tr, "out")
    assert values["slew_rate_vps"] == pytest.approx(1.0)


def test_slew_omitted_without_transient():
    values = extract_metrics(one_pole_sweep(), _dc_stub())
    assert "slew_rate_vps" not in values


# ---------------------------------------------------------------------------
# figure of merit

def test_fom_all_met():
    specs = [Spec("gain_db", ">=", 60.0), Spec("power_w", "<=", 1e-3)]
    assert compute_fom({"gain_db": 70.0, "power_w": 0.5e-3}, specs) == 1.0


def test_fom_partial_example():
    specs = [Spec("gain_db", ">=", 60.0), Spec("power_w", "<=", 1e-3)]
    fom = compute_fom({"gain_db": 40.0, "power_w": 0.5e-3}, specs)
    assert fom == pytest.approx((40.0 / 60.0 + 1.0) / 2.0, abs=1e-12)
    assert fom == pytest.approx(0.8333, abs=1e-4)


def test_fom_no_hard_specs_is_vacuous_one():
    assert compute_fom({}, []) == 1.0
    soft = [Spec("power_w", "<=", 1e-3, hardness="soft_objective")]
    assert compute_fom({"power_w": 5.0}, soft) == 1.0


def test_fom_unmeasured_hard_metric_scores_zero():
    specs = [Spec("gain_db", ">=", 60.0), Spec("slew_rate_vps", ">=", 1e6)]
    assert compute_fom({"gain_db": 60.0}, specs) == pytest.approx(0.5)


def test_fom_soft_objectives_excluded():
    specs = [
        Spec("gain_db", ">=", 60.0),
        Spec("power_w", "<=", 1e-3, hardness="soft_objective"),
    ]
    assert compute_fom({"gain_db": 60.0, "power_w": 99.0}, specs) == 1.0


def _random_specs(rng):
    metrics = rng.sample(METRIC_NAMES, rng.randint(1, len(METRIC_NAMES)))
    specs = []
    for m in metrics:
        specs.append(
            Spec(
                m,
                rng.choice([">=", "<="]),
                rng.uniform(0.1, 100.0),
                rng.choice(["hard", "hard", "soft_objective"]),
            )
        )
    return specs


def test_fom_monotone_under_single_metric_improvement():
    rng = random.Random(99)
    for _ in range(200):
        specs = _random_specs(rng)
        values = {m: rng.uniform(-10.0, 200.0) for m in METRIC_NAMES}
        base = compute_fom(values, specs)
        assert 0.0 <= base <= 1.0
        s = rng.choice(specs)
        improved = dict(values)
        delta = rng.uniform(0.01, 50.0)
        improved[s.metric] = (
            values[s.metric] + delta if s.direction == ">=" else values[s.metric] - delta
        )
        assert compute_fom(improved, specs) >= base - 1e-12


def test_fom_is_one_iff_all_hard_met():
    rng = random.Random(5)
    for _ in range(200):
        specs = _random_specs(rng)
        values = {m: rng.uniform(-10.0, 200.0) for m in METRIC_NAMES}
        report = evaluate(values, specs)
        all_hard_met = all(
            report.satisfied[s.metric] for s in specs if s.hardness == "hard"
        )
        assert (report.fom == 1.0) == all_hard_met
        assert 0.0 <= report.fom <= 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        Spec("nonsense", ">=", 1.0)
    with pytest.raises(ValueError):
        Spec("gain_db", ">", 1.0)
    with pytest.raises(ValueError):
        Spec("gain_db", ">=", float("nan"))
    with pytest.raises(ValueError):
        Spec("gain_db", ">=", 1.0, hardness="softish")
    with pytest.raises(ValueError):
        validate_specs([Spec("gain_db", ">=", 1.0), Spec("gain_db", "<=", 5.0)])


def test_evaluate_report_shape():
    specs = [Spec("gain_db", ">=", 60.0)]
    report = evaluate({"gain_db": 61.0, "power_w": 1.0}, specs)
    assert isinstance(report, MetricReport)
    assert report.satisfied == {"gain_db": True}
    assert report.fom == 1.0
