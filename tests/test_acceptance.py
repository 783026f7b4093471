"""Acceptance suite: one test per top-level behavioral guarantee.

Each test states its tolerance inline and prints one PASS line (visible
with -rA / -s); runtime-capped criteria measure wall-clock and assert it.
"""

import json
import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml

from amsizer.cli import main
from amsizer.gp import GpHyper, gp_fit, gp_predict
from amsizer.llm import ChatRequest, ScriptedBackend
from amsizer.metrics import Spec, evaluate, extract_metrics
from amsizer.mosfet import DEFAULT_MODEL_CARDS, MosModelCard
from amsizer.netlist import (
    ParameterSpace,
    SpaceEntry,
    bind_parameters,
    parse_netlist,
    serialize_netlist,
)
from amsizer.optimizer import OptimizerRequest, optimize
from amsizer.schema import SchemaContext, SchemaFailure, enforce_schema
from amsizer.simulator import (
    AcSweep,
    DcSolution,
    SimulationError,
    Topology,
    solve_ac,
    solve_dc,
    solve_transient,
)
from amsizer.state import AcPlan, WorkflowState
from amsizer.trace import load_trace
from amsizer.workflow import PHASE2_MAX_CYCLES, PHASE3_MAX_FULL_SIMS, measure

from test_netlist import _random_circuit

DATA = Path(__file__).parent / "data"

TWO_STAGE_SPACE = ParameterSpace(entries=tuple(
    SpaceEntry(n, 1e-6, 2e-4, "m", "log")
    for n in ("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8")
) + (
    SpaceEntry("L", 2e-7, 5e-6, "m", "log"),
    SpaceEntry("CC", 1e-13, 1e-11, "F", "log"),
))


def _pass(msg: str) -> None:
    print(f"PASS {msg}")


# ---------------------------------------------------------------------------
# criterion 1: simulator vs closed-form analytics, < 1 s total


def test_criterion_1_simulator_matches_analytic_forms():
    t0 = time.monotonic()

    # resistor divider: mid = 0.5 V within 1e-9
    divider = parse_netlist(
        "Two-resistor voltage divider\n"
        "V1 in 0 DC 1.0\nR1 in mid 1k\nR2 mid 0 1k\n.end\n"
    )
    dc = solve_dc(Topology(divider, DEFAULT_MODEL_CARDS).bind({}))
    assert abs(dc.node_voltages["mid"] - 0.5) <= 1e-9

    # diode-connected NMOS: vgs = vth + sqrt(2 I L / (k' W)) within 1e-6
    # (lambda = 0 card so the square law inverts exactly)
    diode = parse_netlist(
        "Diode-connected NMOS bias cell\n"
        "I1 0 d DC 20u\nM1 d d 0 0 NMOS W=10u L=1u\n.end\n"
    )
    cards = {"NMOS": MosModelCard("NMOS", vth=0.4, kprime=200e-6, lam=0.0)}
    dc = solve_dc(Topology(diode, cards).bind({}))
    vgs_expected = 0.4 + math.sqrt(2 * 20e-6 * 1e-6 / (200e-6 * 10e-6))
    assert abs(dc.node_voltages["d"] - vgs_expected) <= 1e-6

    # RC low-pass at fc = 1/(2 pi R C): -3.0103 dB +/- 0.01, -45 deg +/- 0.1
    c_farad = 1.0 / (2 * math.pi * 1e3 * 1e3)  # fc = 1 kHz with R = 1k
    rc = parse_netlist(
        "First-order RC low-pass\n"
        f"V1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 {c_farad:.16e}\n.end\n"
    )
    rc = Topology(rc, DEFAULT_MODEL_CARDS).bind({})
    dc = solve_dc(rc)
    ac = solve_ac(rc, dc, "V1", "out", 1.0, 1e6)
    idx = int(np.argmin(np.abs(ac.freqs_hz - 1e3)))
    assert abs(ac.freqs_hz[idx] - 1e3) < 1e-6  # the grid hits fc exactly
    mag_db = 20 * math.log10(abs(ac.transfer[idx]))
    phase_deg = math.degrees(np.angle(ac.transfer[idx]))
    assert abs(mag_db - (-3.0103)) <= 0.01
    assert abs(phase_deg - (-45.0)) <= 0.1

    # RC step response: v(t = RC) = 1 - 1/e within 1e-3
    rc_slow = parse_netlist(
        "First-order RC low-pass\n"
        "V1 in 0 DC 0\nR1 in out 1k\nC1 out 0 1u\n.end\n"
    )
    rc_slow = Topology(rc_slow, DEFAULT_MODEL_CARDS).bind({})
    dc = solve_dc(rc_slow)
    tran = solve_transient(rc_slow, dc, {"V1": [(0.0, 1.0)]}, t_stop=1e-3, dt=1e-6)
    v_at_tau = float(tran.node_voltages["out"][-1])
    assert abs(tran.times_s[-1] - 1e-3) < 1e-9
    assert abs(v_at_tau - (1 - math.exp(-1))) <= 1e-3

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(f"criterion 1: divider/diode/RC analytics within tolerance ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: metric extraction on synthetic one-pole data


def test_criterion_2_metric_extraction_on_synthetic_one_pole():
    a0, fp = 100.0, 1e3
    freqs = np.logspace(-2, 7, 181)
    transfer = a0 / (1 + 1j * freqs / fp)
    transfer[0] = a0  # pin the lowest sample to the exact DC value
    ac = AcSweep(freqs_hz=freqs, transfer=transfer)
    dc = DcSolution(node_voltages={}, branch_currents={}, transistor_ops={})

    values = extract_metrics(ac, dc)
    assert values["gain_db"] == 40.0  # exactly
    assert abs(values["ugbw_hz"] - 1e5) <= 0.02 * 1e5
    assert abs(values["phase_margin_deg"] - 90.0) <= 2.0
    _pass("criterion 2: one-pole gain exact, ugbw within 2%, pm within 2 deg")


# ---------------------------------------------------------------------------
# criterion 3: GP oracle equivalence + BO dominates random search, < 30 s


def _gp_direct_oracle(x, y, xq, hyper):
    """Independent GP posterior via direct matrix inversion."""
    def k(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return hyper.signal_var * np.exp(-0.5 * d2 / hyper.lengthscale ** 2)

    m = float(np.mean(y))
    k_inv = np.linalg.inv(k(x, x) + hyper.noise_var * np.eye(len(x)))
    k_star = k(xq, x)
    mean = m + k_star @ k_inv @ (y - m)
    var = hyper.signal_var - np.einsum("ij,jk,ik->i", k_star, k_inv, k_star)
    return mean, np.maximum(var, 0.0)


def test_criterion_3_gp_oracle_and_bo_dominance():
    t0 = time.monotonic()

    hyper = GpHyper()
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        x = rng.random((5, d))
        y = rng.normal(size=5)
        xq = rng.random((7, d))
        model = gp_fit(x, y, hyper)
        mean, var = gp_predict(model, xq)
        mean_o, var_o = _gp_direct_oracle(x, y, xq, hyper)
        assert np.max(np.abs(mean - mean_o)) <= 1e-8
        assert np.max(np.abs(var - var_o)) <= 1e-8

    space = ParameterSpace(tuple(SpaceEntry(f"x{i}", 0.0, 1.0) for i in range(4)))
    center = [0.37, 0.61, 0.52, 0.44]

    def objective(p):
        return 1.0 - sum((p[f"x{i}"] - center[i]) ** 2 for i in range(4)) / 4

    def bo_best(seed):
        req = OptimizerRequest(space=space, budget=60, algorithm="bo", seed=seed)
        return optimize(req, objective).best_fom

    # seeds are independent deterministic runs; threads only cut wall-clock
    with ThreadPoolExecutor(max_workers=4) as pool:
        bo_bests = list(pool.map(bo_best, range(10)))
    for seed, bo in enumerate(bo_bests):
        assert bo >= 1.0 - 0.05
        rng = np.random.default_rng(10_000 + seed)
        random_best = max(
            objective({f"x{i}": v for i, v in enumerate(row)})
            for row in rng.random((60, 4))
        )
        assert bo > random_best

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _pass(f"criterion 3: GP matches oracle to 1e-8; BO >= 0.95 and beats random on 10/10 seeds ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criteria 4, 5, 7 share two full scripted runs through the CLI


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    runs = {}
    for key, cfg in (
        ("two_stage", DATA / "two_stage_run.yaml"),
        ("folded", DATA / "folded_cascode_run.yaml"),
    ):
        out_dirs = []
        for rep in ("a", "b"):
            out_dir = root / f"{key}_{rep}"
            code = main(["run", str(cfg), "--output-dir", str(out_dir)])
            assert code == 0
            out_dirs.append(out_dir)
        best = json.loads((out_dirs[0] / "best_point.json").read_text())
        runs[key] = {"dirs": out_dirs, "accounting": best["accounting"], "best": best}
    return runs


def test_criterion_4_workflow_budget_constants(scenario_runs):
    assert PHASE2_MAX_CYCLES == 8
    assert PHASE3_MAX_FULL_SIMS == 20
    for key, run in scenario_runs.items():
        events = load_trace(run["dirs"][0] / "trace.jsonl")
        phase2_dc = sum(
            1 for e in events
            if e.phase == 2 and e.kind == "sim_result" and e.payload["tool"] == "dc_sim"
        )
        phase3_full = sum(
            1 for e in events
            if e.phase == 3 and e.kind == "sim_result" and e.payload["tool"] == "full_sim"
        )
        assert phase2_dc <= 8, key
        assert phase3_full <= 20, key
    _pass("criterion 4: phase-2 DC cycles <= 8 and phase-3 full sims <= 20 on every scripted run")


def test_criterion_5_ledger_reproduction(scenario_runs):
    assert scenario_runs["two_stage"]["accounting"] == {
        "llm_calls": 34, "opt_calls": 0, "dc_sims": 6,
        "full_sims_llm": 9, "full_sims_opt": 0, "full_sims_total": 9,
    }
    folded = scenario_runs["folded"]["accounting"]
    assert folded["opt_calls"] == 1
    assert folded["full_sims_total"] == 64
    assert folded == {
        "llm_calls": 54, "opt_calls": 1, "dc_sims": 4,
        "full_sims_llm": 21, "full_sims_opt": 43, "full_sims_total": 64,
    }
    _pass("criterion 5: scripted ledgers reproduce (34/0/6/9) and (54/1/4/21+43=64)")


@pytest.mark.parametrize("seed", range(8))
def test_folded_session_succeeds_at_seed(seed, tmp_path, capsys):
    # the folded benchmark runs the scripted session at its own seed and
    # rejects any run that does not end in success with the fixed ledger;
    # at seed 3 BO first reaches fom >= 1 only at its 36th proposal of 43
    cfg = yaml.safe_load((DATA / "folded_cascode_run.yaml").read_text())
    cfg["netlist"] = str(DATA / cfg["netlist"])
    cfg["backend"]["scenario"] = str(DATA / cfg["backend"]["scenario"])
    cfg["seed"] = seed
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(cfg, sort_keys=False))
    code = main(["run", str(config), "--output-dir", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0
    best = json.loads((tmp_path / "out" / "best_point.json").read_text())
    assert best["status"] == "success"
    assert best["accounting"] == {
        "llm_calls": 54, "opt_calls": 1, "dc_sims": 4,
        "full_sims_llm": 21, "full_sims_opt": 43, "full_sims_total": 64,
    }


# ---------------------------------------------------------------------------
# criterion 6: optimizer-only DE baseline reaches fom >= 0.5, < 5 min


def _two_stage_state(circuit) -> WorkflowState:
    return WorkflowState(
        circuit=circuit,
        space=TWO_STAGE_SPACE,
        specs=[],
        model_cards=DEFAULT_MODEL_CARDS,
        ac_plan=AcPlan(input_source="VIN", output_net="out", f_lo=1.0, f_hi=1e9),
    )


def _derive_oracle_targets(circuit, n_samples=10_000, seed=0):
    """Random-search oracle: per-metric 90th-percentile achievable levels.

    AC metrics are conditioned on designs that actually amplify (a real
    unity crossing); power is meaningful for every converged point.  The
    percentile respects each metric's direction (90th for >=, 10th for <=).
    """
    state = _two_stage_state(circuit)
    rng = np.random.default_rng(seed)
    logs = [(math.log(e.lo), math.log(e.hi)) for e in TWO_STAGE_SPACE.entries]
    names = TWO_STAGE_SPACE.names
    gains, ugbws, pms, powers = [], [], [], []
    for _ in range(n_samples):
        u = rng.random(len(names))
        point = {
            n: math.exp(lo + ui * (hi - lo))
            for n, (lo, hi), ui in zip(names, logs, u)
        }
        try:
            v = measure(state, point)[1].values
        except SimulationError:
            continue
        powers.append(v["power_w"])
        if v.get("ugbw_hz", 0) > 0:
            ugbws.append(v["ugbw_hz"])
            if math.isfinite(v.get("gain_db", -math.inf)):
                gains.append(v["gain_db"])
            pm = v.get("phase_margin_deg")
            if pm is not None and math.isfinite(pm):
                pms.append(pm)
    return {
        "gain_db": float(np.percentile(gains, 90)),
        "ugbw_hz": float(np.percentile(ugbws, 90)),
        "phase_margin_deg": float(np.percentile(pms, 90)),
        "power_w": float(np.percentile(powers, 10)),
    }


def test_criterion_6_optimizer_baseline(tmp_path, capsys):
    t0 = time.monotonic()
    circuit = parse_netlist((DATA / "two_stage.sp").read_text())
    targets = _derive_oracle_targets(circuit)

    param_lines = "".join(
        f"  - {{name: {e.name}, lo: {e.lo}, hi: {e.hi}, unit: {e.unit}, scale: log}}\n"
        for e in TWO_STAGE_SPACE.entries
    )
    (tmp_path / "baseline.yaml").write_text(
        f"netlist: {DATA / 'two_stage.sp'}\n"
        f"parameters:\n{param_lines}"
        "specs:\n"
        f"  - {{metric: gain_db, direction: \">=\", target: {targets['gain_db']!r}}}\n"
        f"  - {{metric: ugbw_hz, direction: \">=\", target: {targets['ugbw_hz']!r}}}\n"
        f"  - {{metric: phase_margin_deg, direction: \">=\", target: {targets['phase_margin_deg']!r}}}\n"
        f"  - {{metric: power_w, direction: \"<=\", target: {targets['power_w']!r}}}\n"
        "analysis:\n"
        "  ac: {input_source: VIN, output_net: out}\n"
        f"backend: {{kind: scripted, scenario: {DATA / 'two_stage_scenario.yaml'}}}\n"
        "seed: 0\n"
    )
    code = main(["optimize", str(tmp_path / "baseline.yaml"),
                 "--algo", "de", "--budget", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out)
    assert result["budget_used"] == 2000
    assert result["best_fom"] >= 0.5

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _pass(
        f"criterion 6: DE/2000 on oracle-derived targets reached fom "
        f"{result['best_fom']:.3f} >= 0.5 ({elapsed:.0f}s)"
    )


def test_criterion_7_determinism(scenario_runs):
    for key, run in scenario_runs.items():
        dir_a, dir_b = run["dirs"]
        assert (dir_a / "trace.jsonl").read_bytes() == (dir_b / "trace.jsonl").read_bytes(), key
        assert (dir_a / "report.md").read_bytes() == (dir_b / "report.md").read_bytes(), key
    _pass("criterion 7: repeated runs are byte-identical (both scenarios, optimizer included)")


# ---------------------------------------------------------------------------
# criterion 8: property suites


def test_criterion_8_property_suites():
    # netlist round-trip on 100 fuzzed circuits
    rng = random.Random(914)
    for _ in range(100):
        c = _random_circuit(rng)
        c2 = parse_netlist(serialize_netlist(c))
        assert c2.params == c.params and c2.nets == c.nets
        assert [d.id for d in c2.devices] == [d.id for d in c.devices]

    # matching projection idempotence on random points
    from amsizer.netlist import FeasibleSet, MatchingGroup

    groups = (
        MatchingGroup("equal", ("W1", "W2")),
        MatchingGroup("ratio", ("W3", "W4"), ratios=(1.0, 4.0)),
    )
    names = ("W1", "W2", "W3", "W4", "L")
    feasible = FeasibleSet(ParameterSpace(tuple(SpaceEntry(n, 1e-6, 1e-4) for n in names)), groups)
    nrng = np.random.default_rng(7)
    for _ in range(200):
        point = {n: float(v) for n, v in zip(names, nrng.uniform(1e-6, 1e-4, 5))}
        once = feasible.project(point)
        assert feasible.project(once) == once

    # fom monotonicity: improving one metric never lowers the fom
    metrics_pool = ("gain_db", "ugbw_hz", "phase_margin_deg", "power_w", "slew_rate_vps")
    prng = random.Random(31)
    for _ in range(300):
        specs = []
        for m in metrics_pool:
            if prng.random() < 0.7:
                direction = prng.choice((">=", "<="))
                specs.append(Spec(m, direction, prng.uniform(0.5, 100.0),
                                  prng.choice(("hard", "soft_objective"))))
        if not specs:
            continue
        values = {m: prng.uniform(0.01, 200.0) for m in metrics_pool}
        target_spec = prng.choice(specs)
        improved = dict(values)
        if target_spec.direction == ">=":
            improved[target_spec.metric] = values[target_spec.metric] * 1.5
        else:
            improved[target_spec.metric] = values[target_spec.metric] / 1.5
        assert evaluate(improved, specs).fom >= evaluate(values, specs).fom

    # KCL residual bound on every accepted DC solution
    for path, cards in (
        ("Two-resistor voltage divider\nV1 in 0 DC 1.0\nR1 in mid 1k\nR2 mid 0 1k\n.end\n", DEFAULT_MODEL_CARDS),
        ((DATA / "two_stage.sp").read_text(), DEFAULT_MODEL_CARDS),
    ):
        topology = Topology(parse_netlist(path), cards)
        if topology.params:
            best = {"W1": 8e-6, "W2": 8e-6, "W3": 1e-5, "W4": 1e-5, "W5": 6.4e-6,
                    "W6": 4e-5, "W7": 1.28e-5, "W8": 3.2e-6, "L": 1e-6, "CC": 3e-12}
            system = bind_parameters(topology, TWO_STAGE_SPACE, best)
        else:
            system = topology.bind({})
        dc = solve_dc(system)
        assert dc.residual_a <= 1e-9

    # schema-retry ladder: 3 attempts total, then SchemaFailure
    backend = ScriptedBackend([("*", "still not json"), ("*", '{"nope": 1}')])
    ctx = SchemaContext(
        space=ParameterSpace((SpaceEntry("W1", 1e-6, 1e-4),)), mosfet_names=("M1",),
    )

    def reprompt(violation):
        return backend.complete(ChatRequest(system_prompt="s", user_content=violation)).text

    with pytest.raises(SchemaFailure) as excinfo:
        enforce_schema("not json at all", "sizing_proposal", ctx, reprompt=reprompt)
    assert len(excinfo.value.attempts) == 3
    assert backend.remaining == 0

    _pass("criterion 8: round-trip, idempotence, monotonicity, KCL bound, retry ladder")


# ---------------------------------------------------------------------------
# criterion 9: optional live-backend smoke (non-CI)


@pytest.mark.skipif(
    not os.environ.get("AMSIZER_LIVE_ENDPOINT"),
    reason="live smoke runs only with AMSIZER_LIVE_ENDPOINT set",
)
def test_criterion_9_live_backend_smoke(tmp_path):
    cfg_text = (DATA / "two_stage_run.yaml").read_text()
    cfg_text = cfg_text.replace("netlist: two_stage.sp",
                                f"netlist: {DATA / 'two_stage.sp'}")
    backend_lines = (
        "backend:\n"
        f"  kind: http\n"
        f"  endpoint: {os.environ['AMSIZER_LIVE_ENDPOINT']}\n"
    )
    if os.environ.get("AMSIZER_LIVE_MODEL"):
        backend_lines += f"  model: {os.environ['AMSIZER_LIVE_MODEL']}\n"
    if os.environ.get("AMSIZER_LIVE_API_KEY"):
        backend_lines += "  api_key_env: AMSIZER_LIVE_API_KEY\n"
    head, _, _ = cfg_text.partition("backend:")
    (tmp_path / "live.yaml").write_text(head + backend_lines)

    code = main(["run", str(tmp_path / "live.yaml"), "--output-dir", str(tmp_path / "out")])
    assert code in (0, 2)
    report = (tmp_path / "out" / "report.md").read_text()
    assert report.startswith("# Sizing run report")
    assert "## Accounting" in report
    _pass("criterion 9: live run completed with a well-formed report")
