import gc
import math
import random
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from amsizer.mosfet import (
    DEFAULT_MODEL_CARDS,
    MosModelCard,
    classify_region,
    OV_BLEND,
    mos_eval,
)
from amsizer import simulator
from amsizer.config import build_state, load_config
from amsizer.netlist import DeviceKind, parse_netlist
from amsizer.simulator import NonConvergence, SingularMatrix, solve_dc

DATA = Path(__file__).parent / "data"

NMOS_IDEAL = MosModelCard("NMOS", vth=0.4, kprime=200e-6, lam=0.0)
PMOS_IDEAL = MosModelCard("PMOS", vth=0.4, kprime=80e-6, lam=0.0)


def _bound(circuit, models):
    """The MNA system of a circuit without placeholders."""
    return simulator.Topology(circuit, models).bind({})


# ---------------------------------------------------------------------------
# device model oracles

def mos_current(card, w, l, vg, vd, vs):
    """mos_eval from a model card and W/L: (id, did/dvgs_n, did/dvds_n)."""
    return mos_eval(card.polarity, card.kprime * w / l, card.vth, card.lam, vg, vd, vs)


def _smooth_overdrive(x):
    """Reference: max(x, 0) with a C1 quadratic blend of half-width
    OV_BLEND; returns (vov, dvov/dx)."""
    e = OV_BLEND
    if x <= -e:
        return 0.0, 0.0
    if x >= e:
        return x, 1.0
    t = x + e
    return t * t / (4.0 * e), t / (2.0 * e)


def _model_overdrive(x):
    """(vov, dvov/dx) of mos_eval at vgs - vth = x, read back from a
    saturated NMOS with beta = 1 and lambda = 0: i = vov^2 / 2 and
    gm = vov * dvov."""
    i, gm, _ = mos_eval(1, 1.0, 0.0, 0.0, x, 10.0, 0.0)
    vov = math.sqrt(2.0 * i)
    return vov, (gm / vov if vov else 0.0)


def test_smooth_overdrive_blend():
    e = 1e-3
    assert _model_overdrive(-2 * e) == (0.0, 0.0)
    assert _model_overdrive(5.0) == (5.0, 1.0)
    # continuity at the blend edges
    v_lo, d_lo = _model_overdrive(-e)
    assert v_lo == pytest.approx(0.0, abs=1e-15)
    assert d_lo == pytest.approx(0.0, abs=1e-12)
    v_hi, d_hi = _model_overdrive(e)
    assert v_hi == pytest.approx(e)
    assert d_hi == pytest.approx(1.0)
    # midpoint of the blend
    v_mid, d_mid = _model_overdrive(0.0)
    assert v_mid == pytest.approx(e / 4)
    assert d_mid == pytest.approx(0.5)


def test_square_law_saturation_value():
    # id = 0.5 * kprime * W/L * vov^2, vov = 0.2
    i, gm, gds = mos_current(NMOS_IDEAL, 10e-6, 1e-6, vg=0.6, vd=1.0, vs=0.0)
    assert i == pytest.approx(0.5 * 200e-6 * 10 * 0.04)
    assert gm == pytest.approx(200e-6 * 10 * 0.2)
    assert gds == pytest.approx(0.0)


def test_channel_length_modulation():
    card = MosModelCard("NMOS", vth=0.4, kprime=200e-6, lam=0.1)
    i, _, gds = mos_current(card, 10e-6, 1e-6, vg=0.6, vd=1.0, vs=0.0)
    i0 = 0.5 * 200e-6 * 10 * 0.04
    assert i == pytest.approx(i0 * 1.1)
    assert gds == pytest.approx(i0 * 0.1)


def test_cutoff_current_is_zero():
    i, gm, gds = mos_current(NMOS_IDEAL, 10e-6, 1e-6, vg=0.3, vd=1.0, vs=0.0)
    assert i == 0.0 and gm == 0.0 and gds == 0.0


def test_mos_current_finite_difference_jacobian():
    """Derivatives match central differences in all four polarity/region cases."""
    rng = random.Random(3)
    cards = [
        MosModelCard("NMOS", vth=0.4, kprime=200e-6, lam=0.08),
        MosModelCard("PMOS", vth=0.45, kprime=80e-6, lam=0.12),
    ]
    h = 1e-7
    checked_reverse = 0
    for _ in range(400):
        card = rng.choice(cards)
        w, l = rng.uniform(1e-6, 1e-4), rng.uniform(1e-7, 5e-6)
        vg = rng.uniform(-1.5, 1.5)
        vd = rng.uniform(-1.5, 1.5)
        vs = rng.uniform(-1.5, 1.5)
        pol = card.polarity
        if pol * (vd - vs) < 0:
            checked_reverse += 1
        i0, di_dvgs, di_dvds = mos_current(card, w, l, vg, vd, vs)
        # derivatives are stated in the normalized frame: perturb vgs_n by
        # moving vg by pol*h, vds_n by moving vd by pol*h
        ip, _, _ = mos_current(card, w, l, vg + pol * h, vd, vs)
        im, _, _ = mos_current(card, w, l, vg - pol * h, vd, vs)
        fd_vgs = pol * (ip - im) / (2 * h)
        ip, _, _ = mos_current(card, w, l, vg, vd + pol * h, vs)
        im, _, _ = mos_current(card, w, l, vg, vd - pol * h, vs)
        fd_vds = pol * (ip - im) / (2 * h)
        scale = max(1e-6, abs(di_dvgs), abs(di_dvds))
        assert di_dvgs == pytest.approx(fd_vgs, abs=2e-4 * scale + 1e-12)
        assert di_dvds == pytest.approx(fd_vds, abs=2e-4 * scale + 1e-12)
    assert checked_reverse > 50


def test_mos_current_continuous_at_vds_zero():
    i_plus, _, _ = mos_current(NMOS_IDEAL, 10e-6, 1e-6, vg=0.8, vd=1e-12, vs=0.0)
    i_minus, _, _ = mos_current(NMOS_IDEAL, 10e-6, 1e-6, vg=0.8, vd=-1e-12, vs=0.0)
    assert i_plus == pytest.approx(0.0, abs=1e-12)
    assert i_minus == pytest.approx(0.0, abs=1e-12)


def _nested_mos_current(card, w, l, vg, vd, vs):
    """Reference: the square law in the forward frame, its overdrive from
    _smooth_overdrive, called once per conduction direction."""
    def forward(vgs, vds, beta):
        vov, dvov = _smooth_overdrive(vgs - card.vth)
        clm = 1.0 + card.lam * vds
        if vds >= vov:
            i0 = 0.5 * beta * vov * vov
            return i0 * clm, beta * vov * dvov * clm, i0 * card.lam
        i0 = beta * (vov * vds - 0.5 * vds * vds)
        return i0 * clm, beta * dvov * vds * clm, beta * (vov - vds) * clm + i0 * card.lam

    pol = card.polarity
    beta = card.kprime * w / l
    u, wv = pol * (vg - vs), pol * (vd - vs)
    if wv >= 0.0:
        i, fu, fw = forward(u, wv, beta)
        return pol * i, fu, fw
    i, fu, fw = forward(u - wv, -wv, beta)
    return -pol * i, -fu, fu + fw


def test_mos_current_matches_nested_reference_bit_for_bit():
    rng = random.Random(11)
    cards = [NMOS_IDEAL, PMOS_IDEAL, *DEFAULT_MODEL_CARDS.values()]
    blend = 0
    for _ in range(20_000):
        card = rng.choice(cards)
        w, l = rng.uniform(1e-6, 2e-4), rng.uniform(2e-7, 5e-6)
        vs, vd = rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8)
        if rng.random() < 0.1:
            vd = vs
        # a third of the gates sit within 2 mV of threshold, on either side
        # of the source and in either conduction direction
        near = rng.random() < 1 / 3
        vg = (rng.choice((vs, vd)) + card.polarity * (card.vth + rng.uniform(-2e-3, 2e-3))
              if near else rng.uniform(-1.8, 1.8))
        got = mos_current(card, w, l, vg, vd, vs)
        # reprs tell -0.0 from 0.0, so equal reprs mean equal bits
        assert repr(got) == repr(_nested_mos_current(card, w, l, vg, vd, vs))
        blend += near
    assert blend > 5_000


def test_classify_region_examples():
    assert classify_region(0.3, 1.0, 0.4) == "cutoff"
    assert classify_region(0.6, 0.5, 0.4) == "saturation"
    assert classify_region(0.6, 0.1, 0.4) == "triode"


def test_classify_region_total():
    rng = random.Random(11)
    for _ in range(200):
        r = classify_region(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 1))
        assert r in ("cutoff", "triode", "saturation")


# ---------------------------------------------------------------------------
# DC solves against closed forms

def test_resistor_divider():
    c = parse_netlist("V1 in 0 1\nR1 in mid 1k\nR2 mid 0 1k\n")
    sol = solve_dc(_bound(c, {}))
    assert sol.node_voltages["mid"] == pytest.approx(0.5, abs=1e-9)
    assert sol.node_voltages["in"] == pytest.approx(1.0, abs=1e-9)
    assert sol.branch_currents["V1"] == pytest.approx(-0.5e-3, abs=1e-9)
    assert sol.source_power_w["V1"] == pytest.approx(0.5e-3, abs=1e-9)


def test_diode_connected_nmos():
    c = parse_netlist("I1 0 d 40u\nM1 d d 0 0 NMOS W=10u L=1u\n")
    sol = solve_dc(_bound(c, {"NMOS": NMOS_IDEAL}))
    expected = 0.4 + math.sqrt(2 * 40e-6 / (200e-6 * 10))
    assert sol.node_voltages["d"] == pytest.approx(expected, abs=1e-6)
    op = sol.transistor_ops["M1"]
    assert op["region"] == "saturation"
    assert op["id_A"] == pytest.approx(40e-6, abs=1e-9)


def test_pmos_common_source_closed_form():
    c = parse_netlist(
        "V1 vdd 0 1.8\nVg g 0 0.9\nM1 d g vdd vdd PMOS W=10u L=1u\nR1 d 0 10k\n"
    )
    sol = solve_dc(_bound(c, {"PMOS": PMOS_IDEAL}))
    # vsg = 0.9, vov = 0.5, id = 0.5*80e-6*10*0.25 = 100 uA into R1
    assert sol.node_voltages["d"] == pytest.approx(1.0, abs=1e-6)
    op = sol.transistor_ops["M1"]
    assert op["region"] == "saturation"
    assert op["vgs_V"] == pytest.approx(0.9)
    assert op["vds_V"] == pytest.approx(0.8)
    # PMOS drain sources current into the node: current into drain is negative
    assert op["id_A"] == pytest.approx(-100e-6, abs=1e-9)


def test_nmos_triode_closed_form():
    # vgs = 1.2 (vov = 0.8), force vds = 0.1 with a V source
    c = parse_netlist(
        "Vg g 0 1.2\nVd d 0 0.1\nM1 d g 0 0 NMOS W=10u L=1u\n"
    )
    sol = solve_dc(_bound(c, {"NMOS": NMOS_IDEAL}))
    expected = 200e-6 * 10 * (0.8 * 0.1 - 0.5 * 0.01)
    assert sol.transistor_ops["M1"]["region"] == "triode"
    # Vd supplies the drain current, so its branch current is negative
    assert sol.branch_currents["Vd"] == pytest.approx(-expected, abs=1e-9)


def test_reverse_conduction_mosfet():
    # drain terminal held below source: conduction swaps roles
    c = parse_netlist(
        "Vg g 0 1.0\nVs s 0 0.5\nVd d 0 0.0\nM1 d g s 0 NMOS W=10u L=1u\n"
    )
    sol = solve_dc(_bound(c, {"NMOS": NMOS_IDEAL}))
    op = sol.transistor_ops["M1"]
    assert op["vds_V"] == pytest.approx(-0.5)
    # swapped frame: vgs' = 1.0, vds' = 0.5, vov = 0.6 -> triode
    expected = 200e-6 * 10 * (0.6 * 0.5 - 0.5 * 0.25)
    assert op["id_A"] == pytest.approx(-expected, rel=1e-9)
    assert op["region"] == "triode"


def _independent_kcl(circuit, models, sol):
    """Recompute per-node device-current sums straight from the solution."""
    sums = {n: 0.0 for n in circuit.nets if n != "0"}

    def add(net, val):
        if net != "0":
            sums[net] += val

    v = sol.node_voltages
    for d in circuit.devices:
        if d.kind is DeviceKind.RESISTOR:
            a, b = d.terminals
            i = (v[a] - v[b]) / d.value("R")
            add(a, i)
            add(b, -i)
        elif d.kind is DeviceKind.VSOURCE:
            a, b = d.terminals
            i = sol.branch_currents[d.id]
            add(a, i)
            add(b, -i)
        elif d.kind is DeviceKind.ISOURCE:
            a, b = d.terminals
            add(a, d.value("DC"))
            add(b, -d.value("DC"))
        elif d.kind is DeviceKind.MOSFET:
            dn, gn, sn, _ = d.terminals
            card = models[d.model]
            i, _, _ = mos_current(card, d.value("W"), d.value("L"), v[gn], v[dn], v[sn])
            add(dn, i)
            add(sn, -i)
    return sums


CIRCUITS = [
    ("V1 in 0 1\nR1 in mid 1k\nR2 mid 0 1k\n", {}),
    ("I1 0 d 40u\nM1 d d 0 0 NMOS W=10u L=1u\n", {"NMOS": NMOS_IDEAL}),
    (
        "V1 vdd 0 1.8\nVg g 0 0.9\nM1 d g vdd vdd PMOS W=10u L=1u\nR1 d 0 10k\n",
        {"PMOS": PMOS_IDEAL},
    ),
    (
        "V1 vdd 0 1.8\nVin g 0 0.7\nM1 d g 0 0 NMOS W=20u L=1u\nR1 vdd d 5k\n",
        {"NMOS": DEFAULT_MODEL_CARDS["NMOS"]},
    ),
    (
        # five-transistor OTA
        "V1 vdd 0 1.8\n"
        "Vip inp 0 0.9\nVim inm 0 0.9\n"
        "M1 x inp t 0 NMOS W=20u L=1u\n"
        "M2 out inm t 0 NMOS W=20u L=1u\n"
        "M3 x x vdd vdd PMOS W=10u L=1u\n"
        "M4 out x vdd vdd PMOS W=10u L=1u\n"
        "M5 t bias 0 0 NMOS W=10u L=1u\n"
        "Vb bias 0 0.7\n",
        dict(DEFAULT_MODEL_CARDS),
    ),
]


@pytest.mark.parametrize("text,models", CIRCUITS)
def test_kcl_residual_bound(text, models):
    circuit = parse_netlist(text)
    sol = solve_dc(_bound(circuit, models))
    sums = _independent_kcl(circuit, models, sol)
    worst = max(abs(s) for s in sums.values())
    assert worst <= 1e-9, f"KCL violated: {sums}"
    assert sol.residual_a <= 1e-9
    assert sol.node_voltages["0"] == 0.0


def test_cross_check_against_scipy_root():
    """Independent dense solve of the same device equations (five-T OTA)."""
    text, models = CIRCUITS[4]
    circuit = parse_netlist(text)
    sol = solve_dc(_bound(circuit, models))

    nets = sorted(circuit.nets - {"0"})
    vsrcs = [d for d in circuit.devices if d.kind is DeviceKind.VSOURCE]
    labels = nets + [d.id for d in vsrcs]

    def residual(xvec):
        volts = {"0": 0.0, **{n: xvec[i] for i, n in enumerate(nets)}}
        branch = {d.id: xvec[len(nets) + k] for k, d in enumerate(vsrcs)}
        fake = type(sol)(volts, branch, {}, {}, 0.0, 0)
        sums = _independent_kcl(circuit, models, fake)
        rows = [sums[n] for n in nets]
        for d in vsrcs:
            a, b = d.terminals
            rows.append(volts[a] - volts[b] - d.value("DC"))
        return rows

    x0 = [sol.node_voltages[n] for n in nets] + [sol.branch_currents[d.id] for d in vsrcs]
    x0 = np.array(x0) + 0.01  # perturb so the root find does real work
    res = scipy.optimize.root(residual, x0, method="hybr", tol=1e-12)
    assert res.success
    for i, n in enumerate(nets):
        assert res.x[i] == pytest.approx(sol.node_voltages[n], abs=1e-6), n


def test_singular_matrix_reported():
    # two parallel ideal V sources with different values: structurally singular
    c = parse_netlist("V1 a 0 1\nV2 a 0 2\nR1 a 0 1k\n")
    with pytest.raises(SingularMatrix) as exc:
        solve_dc(_bound(c, {}))
    assert exc.value.unknown == "I(V2)"


def _two_unknowns():
    # unknowns: node "a", then the branch current "I(V1)"
    return simulator.Topology(parse_netlist("V1 a 0 1\nR1 a 0 1k\n"), {}).bind({})


@pytest.mark.parametrize(
    "j,unknown",
    [([[0.0, 0.0], [0.0, 0.0]], "a"), ([[1.0, 0.0], [0.0, 0.0]], "I(V1)")],
)
def test_zero_pivot_names_its_unknown(j, unknown):
    comp = _two_unknowns()
    assert comp.topology.labels == ["a", "I(V1)"]
    with pytest.raises(SingularMatrix) as exc:
        comp._solve_linear(np.array(j), np.ones(2))
    assert exc.value.unknown == unknown
    assert str(exc.value) == f"singular MNA matrix at unknown {unknown!r}"


def test_overflowing_solution_fails_the_finite_check(monkeypatch):
    # the pivots pass the relative check, but 1e10 / 1e-308 overflows
    solves = []
    dgetrs = simulator.dgetrs

    def counting(*args):
        solves.append(args)
        return dgetrs(*args)

    comp = _two_unknowns()
    monkeypatch.setattr(simulator, "dgetrs", counting)
    with pytest.raises(SingularMatrix) as exc:
        comp._solve_linear(np.diag([1e-308, 1e-308]), np.full(2, 1e10))
    assert exc.value.unknown == "a"
    assert len(solves) == 1


def test_nonconvergence_reports_iterations(monkeypatch):
    monkeypatch.setattr(simulator, "DC_MAX_ITERS", 2)
    c = parse_netlist("I1 0 d 40u\nM1 d d 0 0 NMOS W=10u L=1u\n")
    with pytest.raises(NonConvergence) as exc:
        solve_dc(_bound(c, {"NMOS": NMOS_IDEAL}))
    assert exc.value.iterations == 2
    assert exc.value.residual > 0


def test_solve_linear_matches_scipy_lu_solve(monkeypatch):
    """The direct LAPACK calls give lu_solve(lu_factor(j), -f) bit for bit,
    on the Jacobians of two-stage DC solves."""
    systems = []
    solve = simulator._Compiled._solve_linear

    def recording(comp, j, rhs):
        systems.append((comp, j.copy(), rhs.copy()))
        return solve(comp, j, rhs)

    monkeypatch.setattr(simulator._Compiled, "_solve_linear", recording)
    cfg = load_config(DATA / "two_stage_run.yaml")
    mid = cfg.space.midpoint()
    for point in (mid, {**mid, "W6": 1e-4, "CC": 1e-12}):
        solve_dc(simulator.Topology(cfg.circuit, cfg.model_cards).bind(point))
    solved = 0
    for comp, j, rhs in systems:
        try:
            dx = solve(comp, j, rhs)
        except SingularMatrix:
            continue
        ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(j), rhs)
        assert dx.tobytes() == ref.tobytes()
        solved += 1
    assert solved >= 10


# ---------------------------------------------------------------------------
# the compiled MOSFET stamp, gmin shunt and update clip

def _per_entry_residual_and_jacobian(comp, x, b, gmin):
    """Reference: the stamp as one `+=` per matrix and residual entry."""
    j = comp.g0.copy()
    if gmin > 0.0:
        j[range(comp.topology.n_nodes), range(comp.topology.n_nodes)] += gmin
    f = j @ x - b
    for dev, card, di, gi, si in comp.topology.mosfets:
        w, l = comp.value(dev.id, "W"), comp.value(dev.id, "L")
        vd = x[di] if di >= 0 else 0.0
        vg = x[gi] if gi >= 0 else 0.0
        vs = x[si] if si >= 0 else 0.0
        i_d, gm, gds = mos_current(card, w, l, vg, vd, vs)
        if di >= 0:
            f[di] += i_d
        if si >= 0:
            f[si] -= i_d
        if di >= 0:
            if gi >= 0:
                j[di, gi] += gm
            j[di, di] += gds
            if si >= 0:
                j[di, si] -= gm + gds
        if si >= 0:
            if gi >= 0:
                j[si, gi] -= gm
            if di >= 0:
                j[si, di] -= gds
            j[si, si] += gm + gds
    return f, j


def _random_point(space, rng):
    # log-uniform in each range (every entry of both run configs is log-scaled)
    return {e.name: e.lo * (e.hi / e.lo) ** rng.random() for e in space.entries}


def _assert_stamp_matches_per_entry(comp, rng, trials):
    reverse = 0
    for _ in range(trials):
        x = np.array([rng.uniform(-2.0, 2.0) for _ in range(comp.topology.n_unknowns)])
        v = list(x) + [0.0]
        reverse += sum(
            card.polarity * (v[di] - v[si]) < 0.0 for _, card, di, _, si in comp.topology.mosfets
        )
        for gmin in (0.0, simulator.GMIN):
            f, j = comp.residual_and_jacobian(x, comp.b_dc, gmin)
            f_ref, j_ref = _per_entry_residual_and_jacobian(comp, x, comp.b_dc, gmin)
            assert f.tobytes() == f_ref.tobytes()
            assert j.tobytes() == j_ref.tobytes()
    return reverse


@pytest.mark.parametrize("run", ["two_stage_run.yaml", "folded_cascode_run.yaml"])
def test_stamp_matches_per_entry_loop_bit_for_bit(run):
    cfg = load_config(DATA / run)
    topology = simulator.Topology(cfg.circuit, cfg.model_cards)
    rng = random.Random(17)
    reverse = 0
    for _ in range(25):
        comp = topology.bind(_random_point(cfg.space, rng))
        reverse += _assert_stamp_matches_per_entry(comp, rng, 2)
    assert reverse > 0


def test_stamp_with_grounded_terminals_matches_per_entry_loop():
    # drain (M1), gate (M2, a PMOS) and source (M3) each on ground; M4 is
    # diode-connected and M5 has drain and source on one net
    circuit = parse_netlist(
        "V1 vdd 0 1.8\nVb g 0 0.7\n"
        "M1 0 g s 0 NMOS W=10u L=1u\n"
        "M2 d 0 s vdd PMOS W=20u L=1u\n"
        "M3 d g 0 0 NMOS W=5u L=2u\n"
        "M4 s s d 0 NMOS W=3u L=1u\n"
        "M5 d g d 0 NMOS W=4u L=1u\n"
        "R1 vdd d 10k\nR2 s 0 5k\n"
    )
    comp = simulator.Topology(circuit, dict(DEFAULT_MODEL_CARDS)).bind({})
    for terminal in (2, 3, 4):  # drain, gate, source index
        assert any(m[terminal] == -1 for m in comp.topology.mosfets)
    assert _assert_stamp_matches_per_entry(comp, random.Random(5), 40) > 0


def test_gmin_shunt_lands_on_node_diagonals_only():
    cfg = load_config(DATA / "two_stage_run.yaml")
    topology = simulator.Topology(cfg.circuit, cfg.model_cards)
    comp = topology.bind(cfg.space.midpoint())
    rng = random.Random(2)
    x = np.array([rng.uniform(0.0, 1.8) for _ in range(comp.topology.n_unknowns)])
    f0, j0 = comp.residual_and_jacobian(x, comp.b_dc, 0.0)
    f1, j1 = comp.residual_and_jacobian(x, comp.b_dc, simulator.GMIN)
    nodes = np.arange(comp.topology.n_nodes)
    off = np.ones_like(j0, bool)
    off[nodes, nodes] = False
    # branch-current rows and every off-diagonal entry are untouched
    assert comp.topology.n_unknowns > comp.topology.n_nodes
    assert j1[off].tobytes() == j0[off].tobytes()
    assert f1[comp.topology.n_nodes:].tobytes() == f0[comp.topology.n_nodes:].tobytes()
    # exactly gmin where nothing else sits on the diagonal (the input
    # nets see only gates), to the rounding of the stamp sums elsewhere
    for net in ("inp", "inn"):
        i = comp.topology.node_index[net]
        assert j0[i, i] == 0.0 and j1[i, i] == simulator.GMIN
    assert (j1 - j0)[nodes, nodes] == pytest.approx(
        np.full(comp.topology.n_nodes, simulator.GMIN), rel=1e-6)


def test_newton_clips_node_updates_only(monkeypatch):
    # linear: the first full Newton step from 0 would land on the answer
    # a = 1, c = 0.5, b = -1, d = -1/11 with branch currents near 0.5 and 0.9 A
    monkeypatch.setattr(simulator, "DV_MAX", 0.25)
    comp = simulator.Topology(
        parse_netlist("V1 a 0 1\nR1 a c 1\nR2 c 0 1\nV2 b 0 -1\nR3 b d 1\nR4 d 0 0.1\n"), {}
    ).bind({})
    steps, iterates = [], []
    solve, assemble = comp._solve_linear, comp.residual_and_jacobian

    def recording_solve(j, rhs):
        steps.append(solve(j, rhs).copy())
        return steps[-1].copy()

    def recording_assemble(x, b, gmin):
        iterates.append(x.copy())
        return assemble(x, b, gmin)

    monkeypatch.setattr(comp, "_solve_linear", recording_solve)
    monkeypatch.setattr(comp, "residual_and_jacobian", recording_assemble)
    x, iters, _ = comp.newton(np.zeros(comp.topology.n_unknowns), comp.b_dc)
    assert iters > 1
    raw, after = steps[0], iterates[1]  # from x = 0 the iterate is the step
    n = comp.topology.n_nodes
    volts = {net: after[i] for net, i in comp.topology.node_index.items() if i >= 0}
    assert (volts["a"], volts["b"], volts["c"]) == (0.25, -0.25, 0.25)
    assert volts["d"] == pytest.approx(-1 / 11)
    assert after[:n].tobytes() == np.clip(raw[:n], -0.25, 0.25).tobytes()
    assert after[n:].tobytes() == raw[n:].tobytes()
    assert min(abs(raw[n:])) > 0.25
    assert x[comp.topology.node_index["a"]] == pytest.approx(1.0)


def test_capacitor_only_node_is_tolerated():
    # the floating cap net has no DC path; gmin pins it without polluting KCL
    c = parse_netlist("V1 in 0 1\nR1 in out 1k\nR2 out 0 1k\nC1 float out 1p\n")
    sol = solve_dc(_bound(c, {}))
    assert sol.node_voltages["out"] == pytest.approx(0.5, abs=1e-9)


def test_missing_model_card():
    c = parse_netlist("I1 0 d 1u\nM1 d d 0 0 XMOS W=1u L=1u\n")
    with pytest.raises(Exception) as exc:
        solve_dc(_bound(c, {"NMOS": NMOS_IDEAL}))
    assert "XMOS" in str(exc.value)


def test_unbound_circuit_rejected():
    c = parse_netlist("I1 0 d 1u\nM1 d d 0 0 NMOS W={W1} L=1u\n")
    with pytest.raises(Exception) as exc:
        solve_dc(_bound(c, {"NMOS": NMOS_IDEAL}))
    assert "W1" in str(exc.value)


def _live_compiled() -> int:
    return sum(isinstance(o, simulator._Compiled) for o in gc.get_objects())


def test_solve_dc_leaves_no_reference_cycle():
    # the plain rung fails singular on every transistor point, and a kept
    # exception's traceback would hold solve_dc's frame and its _Compiled
    from amsizer.workflow import measure

    cfg = load_config(DATA / "two_stage_run.yaml")
    state = build_state(cfg)
    floating = parse_netlist("V1 a 0 1\nR1 a b 1k\nR2 x y 1k\nI1 0 x 1m\n")
    gc.collect()
    gc.disable()
    try:
        before = _live_compiled()
        for _ in range(3):
            _dc, report, note = measure(state, cfg.space.midpoint())
            assert report is not None and note == ""
        assert _live_compiled() == before
        failed = False
        try:
            solve_dc(_bound(floating, DEFAULT_MODEL_CARDS))
        except (NonConvergence, SingularMatrix):
            failed = True
        assert failed
        assert _live_compiled() == before
    finally:
        gc.enable()
