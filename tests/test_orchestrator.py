"""End-to-end and focused tests for the four-phase sizing workflow."""

import json
from pathlib import Path

import pytest

from amsizer.llm import ScriptedBackend, load_scenario
from amsizer.metrics import MetricReport, Spec
from amsizer.mosfet import DEFAULT_MODEL_CARDS
from amsizer.netlist import FeasibleSet, MatchingGroup, ParameterSpace, SpaceEntry, parse_netlist
from amsizer.simulator import NonConvergence
from amsizer.state import AcPlan, BudgetLedger, HistoryEntry, TranPlan, WorkflowState
from amsizer.trace import TraceLog, load_trace, render_report, summarize_accounting
from amsizer.workflow import PhaseCaps, Workflow, WorkflowError, detect_stagnation

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# two-stage scripted scenario: the full four-phase run with known numbers

TWO_STAGE_ENTRIES = tuple(
    SpaceEntry(n, 1e-6, 2e-4, "m", "log")
    for n in ("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8")
) + (
    SpaceEntry("L", 2e-7, 5e-6, "m", "log"),
    SpaceEntry("CC", 1e-13, 1e-11, "F", "log"),
)

TWO_STAGE_SPECS = (
    Spec("gain_db", ">=", 70.0, "hard"),
    Spec("ugbw_hz", ">=", 12e6, "hard"),
    Spec("phase_margin_deg", ">=", 60.0, "hard"),
    Spec("power_w", "<=", 3e-4, "hard"),
)

TWO_STAGE_ACCOUNTING = {
    "llm_calls": 34,
    "opt_calls": 0,
    "dc_sims": 6,
    "full_sims_llm": 9,
    "full_sims_opt": 0,
    "full_sims_total": 9,
}

TWO_STAGE_BEST = {
    "W1": 8e-6, "W2": 8e-6, "W3": 1e-5, "W4": 1e-5, "W5": 6.4e-6,
    "W6": 4e-5, "W7": 1.28e-5, "W8": 3.2e-6, "L": 1e-6, "CC": 3e-12,
}

# figure of merit of each phase-3 full simulation, in order
TWO_STAGE_FOMS = [
    0.972208, 0.997190, 0.983851, 0.982048, 0.996428,
    0.986527, 0.997538, 0.999191, 1.0,
]


def two_stage_state() -> WorkflowState:
    circuit = parse_netlist((DATA / "two_stage.sp").read_text())
    return WorkflowState(
        circuit=circuit,
        space=ParameterSpace(entries=TWO_STAGE_ENTRIES),
        specs=TWO_STAGE_SPECS,
        model_cards=DEFAULT_MODEL_CARDS,
        ac_plan=AcPlan(input_source="VIN", output_net="out"),
        budgets=BudgetLedger(),
    )


def run_two_stage(trace_path=None):
    backend = load_scenario(str(DATA / "two_stage_scenario.yaml"))
    trace = TraceLog(path=trace_path)
    workflow = Workflow(two_stage_state(), backend, trace)
    result = workflow.run()
    trace.close()
    return result, trace, backend


@pytest.fixture(scope="module")
def two_stage_run():
    return run_two_stage()


class TestTwoStageScenario:
    def test_accounting_row(self, two_stage_run):
        result, _, _ = two_stage_run
        assert result.accounting == TWO_STAGE_ACCOUNTING

    def test_script_fully_consumed(self, two_stage_run):
        _, _, backend = two_stage_run
        assert backend.remaining == 0

    def test_success_with_known_best_point(self, two_stage_run):
        result, _, _ = two_stage_run
        assert result.status == "success"
        assert result.best_fom == 1.0
        assert result.best_point == TWO_STAGE_BEST

    def test_ledger_equals_trace_fold(self, two_stage_run):
        result, trace, _ = two_stage_run
        assert summarize_accounting(trace.events) == result.accounting

    def test_dc_sim_region_trajectory(self, two_stage_run):
        _, trace, _ = two_stage_run
        dc_results = [
            e.payload for e in trace.events
            if e.kind == "sim_result" and e.payload.get("tool") == "dc_sim"
        ]
        assert len(dc_results) == 6
        for payload in dc_results[:5]:
            assert payload["ok"]
            assert any(r != "saturation" for r in payload["regions"].values())
        assert all(r == "saturation" for r in dc_results[5]["regions"].values())

    def test_full_sim_fom_trajectory(self, two_stage_run):
        _, trace, _ = two_stage_run
        foms = [
            e.payload["fom"] for e in trace.events
            if e.kind == "sim_result" and e.payload.get("tool") == "full_sim"
        ]
        assert foms == pytest.approx(TWO_STAGE_FOMS, abs=1e-5)
        assert all(f < 1.0 for f in foms[:-1])
        assert foms[-1] == 1.0

    def test_phases_never_move_backwards(self, two_stage_run):
        _, trace, _ = two_stage_run
        phases = [e.phase for e in trace.events]
        assert phases == sorted(phases)
        assert max(phases) == 3  # solved in phase 3; phase 4 never entered

    def test_event_seq_contiguous(self, two_stage_run):
        _, trace, _ = two_stage_run
        assert [e.seq for e in trace.events] == list(range(1, len(trace.events) + 1))

    def test_scripted_points_pass_through_unadjusted(self, two_stage_run):
        _, trace, _ = two_stage_run
        for e in trace.events:
            if e.kind == "warning":
                assert "adjusted" not in e.payload["message"]
                assert "clamped" not in e.payload["message"]

    def test_simulated_points_obey_bounds_and_matching(self, two_stage_run):
        result, trace, _ = two_stage_run
        space = result.state.space
        for e in trace.events:
            if e.kind == "tool_call" and "point" in e.payload:
                point = e.payload["point"]
                for entry in space.entries:
                    assert entry.lo <= point[entry.name] <= entry.hi
                assert point["W1"] == point["W2"]
                assert point["W3"] == point["W4"]

    def test_matching_groups_adopted_from_agent(self, two_stage_run):
        result, _, _ = two_stage_run
        groups = result.state.matching_groups
        assert [(g.kind, g.members) for g in groups] == [
            ("equal", ("W1", "W2")),
            ("equal", ("W3", "W4")),
        ]

    def test_report_renders_run(self, two_stage_run):
        _, trace, _ = two_stage_run
        report = render_report(trace.events)
        assert "## Accounting" in report
        assert "| 34 | 0 | 6 | 9 | 0 | 9 |" in report
        assert "Figure of merit: 1" in report
        # rationale text is quoted verbatim
        assert "Split the bracket: W6=18u." in report


# ---------------------------------------------------------------------------
# folded-cascode scripted scenario: phase 4 escalates to the optimizer

FOLDED_ACCOUNTING = {
    "llm_calls": 54,
    "opt_calls": 1,
    "dc_sims": 4,
    "full_sims_llm": 21,
    "full_sims_opt": 43,
    "full_sims_total": 64,
}


def folded_state() -> WorkflowState:
    circuit = parse_netlist((DATA / "folded_cascode.sp").read_text())
    return WorkflowState(
        circuit=circuit,
        space=ParameterSpace(entries=tuple(
            SpaceEntry(n, 1e-6, 2e-4, "m", "log")
            for n in ("W0", "W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8")
        ) + (SpaceEntry("L", 2e-7, 5e-6, "m", "log"),)),
        specs=(
            Spec("gain_db", ">=", 50.0, "hard"),
            Spec("ugbw_hz", ">=", 50e6, "hard"),
            Spec("phase_margin_deg", ">=", 60.0, "hard"),
            Spec("power_w", "<=", 3.5e-4, "hard"),
        ),
        model_cards=DEFAULT_MODEL_CARDS,
        ac_plan=AcPlan(input_source="VIP", output_net="out"),
        budgets=BudgetLedger(),
    )


def run_folded(trace_path=None):
    backend = load_scenario(str(DATA / "folded_cascode_scenario.yaml"))
    trace = TraceLog(path=trace_path)
    workflow = Workflow(folded_state(), backend, trace, seed=0)
    result = workflow.run()
    trace.close()
    return result, trace, backend


@pytest.fixture(scope="module")
def folded_run():
    return run_folded()


class TestFoldedCascodeScenario:
    def test_accounting_row(self, folded_run):
        result, _, _ = folded_run
        assert result.accounting == FOLDED_ACCOUNTING

    def test_script_fully_consumed(self, folded_run):
        _, _, backend = folded_run
        assert backend.remaining == 0

    def test_optimizer_closes_the_gap(self, folded_run):
        result, _, _ = folded_run
        assert result.status == "success"
        assert result.best_fom >= 1.0
        # reasoning plateaued below target; only the optimizer run solved it
        best = result.state.best_entry()
        assert best.source == "optimizer"

    def test_ledger_equals_trace_fold(self, folded_run):
        result, trace, _ = folded_run
        assert summarize_accounting(trace.events) == result.accounting

    def test_all_four_phases_ran(self, folded_run):
        _, trace, _ = folded_run
        phases = [e.phase for e in trace.events]
        assert phases == sorted(phases)
        assert set(phases) == {1, 2, 3, 4}

    def test_scripted_simulation_failure_is_recorded(self, folded_run):
        _, trace, _ = folded_run
        failures = [
            e.payload for e in trace.events
            if e.kind == "sim_result" and not e.payload["ok"]
            and e.payload.get("source") == "reasoning_sizer"
        ]
        assert len(failures) == 1
        assert "converge" in failures[0]["error"]

    def test_optimizer_evaluations_traced_individually(self, folded_run):
        _, trace, _ = folded_run
        opt_results = [
            e for e in trace.events
            if e.kind == "sim_result" and e.actor == "optimizer"
        ]
        assert len(opt_results) == 43
        assert all(e.payload["source"] == "optimizer" for e in opt_results)

    def test_advisor_saw_engine_stagnation_signal(self, folded_run):
        _, trace, _ = folded_run
        advisor_input = next(
            e.payload["content"] for e in trace.events
            if e.kind == "agent_input" and e.actor == "advisor_reviewer"
        )
        assert "Stagnation signal" in advisor_input
        assert "stagnating" in advisor_input

    def test_no_resume_entry_after_successful_optimizer(self, folded_run):
        result, _, _ = folded_run
        notes = [e.note for e in result.state.sizing_history]
        assert "resume from optimizer best" not in notes

    def test_optimizer_points_respect_matching_and_bounds(self, folded_run):
        result, trace, _ = folded_run
        space = result.state.space
        points = [
            e.payload["point"] for e in trace.events
            if e.kind == "sim_result" and e.actor == "optimizer"
        ]
        for point in points:
            for entry in space.entries:
                assert entry.lo <= point[entry.name] <= entry.hi
            assert point["W1"] == point["W2"]
            assert point["W3"] == point["W4"]
            assert point["W5"] == point["W6"]
            assert point["W7"] == point["W8"]


class TestDeterminism:
    def test_two_stage_runs_are_byte_identical(self, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        result_a, _, _ = run_two_stage(str(path_a))
        result_b, _, _ = run_two_stage(str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()
        assert result_a.best_point == result_b.best_point
        assert load_trace(str(path_a)) == load_trace(str(path_b))

    def test_folded_runs_identical_through_the_optimizer(self, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        result_a, _, _ = run_folded(str(path_a))
        result_b, _, _ = run_folded(str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()
        assert result_a.best_point == result_b.best_point


# ---------------------------------------------------------------------------
# focused loop tests on a one-transistor stage

CS_NETLIST = """One-transistor common-source test stage
VDD vdd 0 DC 1.8
VIN in 0 DC 0.9 AC 1
M1 out in 0 0 NMOS W={W1} L=1u
R1 vdd out {RL}
CL out 0 1p
.end
"""

CS_SAT = {"W1": 1e-5, "RL": 1e3}  # M1 saturated, gain ~1 dB
CS_TRIODE = {"W1": 1e-4, "RL": 1e6}  # M1 deep in triode

UNREACHABLE = (Spec("gain_db", ">=", 100.0, "hard"),)
EASY = (Spec("gain_db", ">=", 0.5, "hard"),)


def cs_space() -> ParameterSpace:
    return ParameterSpace(entries=(
        SpaceEntry("W1", 1e-6, 1e-4, "m", "log"),
        SpaceEntry("RL", 1e3, 1e6, "ohm", "log"),
    ))


def cs_state(specs=UNREACHABLE, goals=None, point=None) -> WorkflowState:
    state = WorkflowState(
        circuit=parse_netlist(CS_NETLIST),
        space=cs_space(),
        specs=tuple(specs),
        model_cards=DEFAULT_MODEL_CARDS,
        ac_plan=AcPlan(input_source="VIN", output_net="out"),
        budgets=BudgetLedger(),
    )
    state.circuit_explanation = "One NMOS common-source stage with a resistive load."
    state.dc_goals = dict(goals or {})
    if point is not None:
        state.sizing_history.append(HistoryEntry(point=dict(point), source="initial_designer"))
    return state


def proposal(point, rationale="adjust") -> str:
    return json.dumps({"parameters": point, "rationale": rationale})


def dc_review(met, feedback="keep going") -> str:
    return json.dumps({"goals_met": met, "discrepancies": [], "feedback": feedback})


def specs_review(next_tool="full_sim") -> str:
    return json.dumps({"critique": "short", "feedback": "push", "next_tool": next_tool})


def advisor_review(advise, next_tool="full_sim") -> str:
    return json.dumps({
        "critique": "c", "feedback": "f", "stagnation": False,
        "advise_optimizer": advise, "next_tool": next_tool,
    })


def optimize_decision(budget, algorithm="de") -> str:
    return json.dumps({
        "action": "optimize", "optimizer_budget": budget,
        "algorithm": algorithm, "rationale": "escalate",
    })


def warnings_of(trace):
    return [e.payload["message"] for e in trace.events if e.kind == "warning"]


class TestPhase1:
    PHASE1_OK = [
        ("circuit_explainer", json.dumps({"explanation": "one stage"})),
        ("matching_finder", json.dumps({"groups": [], "rationale": "nothing matches"})),
        ("dc_goal_setter", json.dumps({"goals": {"M1": "saturation"}, "rationale": "gain"})),
        ("initial_designer", proposal(CS_SAT)),
    ]

    def test_happy_path_sets_state(self):
        state = cs_state()
        trace = TraceLog()
        Workflow(state, ScriptedBackend(list(self.PHASE1_OK)), trace).run_phase1()
        assert state.circuit_explanation == "one stage"
        assert state.matching_groups == []
        assert state.dc_goals == {"M1": "saturation"}
        assert state.sizing_history[-1].point == CS_SAT
        assert state.budgets.llm_calls == 4

    def test_schema_retry_costs_an_extra_call(self):
        entries = [("circuit_explainer", "no json here")] + list(self.PHASE1_OK)
        state = cs_state()
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace).run_phase1()
        assert state.circuit_explanation == "one stage"
        assert state.budgets.llm_calls == 5
        retries = [e for e in trace.events if e.kind == "schema_retry"]
        assert len(retries) == 1
        assert retries[0].payload["attempt"] == 1
        assert "JSON" in retries[0].payload["violation"]

    def test_schema_exhaustion_degrades_to_empty_matching(self):
        entries = [self.PHASE1_OK[0]]
        entries += [("matching_finder", "still not json")] * 3
        entries += self.PHASE1_OK[2:]
        state = cs_state()
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace).run_phase1()
        assert state.matching_groups == []
        assert state.budgets.llm_calls == 6
        assert any("continuing with empty matching" in w for w in warnings_of(trace))

    def test_preset_matching_skips_finder(self):
        state = two_stage_state()
        state.matching_groups = [MatchingGroup(kind="equal", members=("W1", "W2"))]
        entries = [
            ("circuit_explainer", json.dumps({"explanation": "two stages"})),
            ("dc_goal_setter", json.dumps({"goals": {}, "rationale": ""})),
            ("initial_designer", proposal(TWO_STAGE_BEST)),
        ]
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace).run_phase1()
        assert state.budgets.llm_calls == 3
        assert any("matching finder skipped" in w for w in warnings_of(trace))

    def test_out_of_bounds_initial_point_is_clamped(self):
        entries = list(self.PHASE1_OK)
        entries[3] = ("initial_designer", proposal({"W1": 1.0, "RL": 1e4}))
        state = cs_state()
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace).run_phase1()
        assert state.sizing_history[-1].point == {"W1": 1e-4, "RL": 1e4}
        assert any("clamped W1" in w for w in warnings_of(trace))

    def test_invalid_preset_matching_rejected(self):
        state = cs_state()
        state.matching_groups = [MatchingGroup(kind="equal", members=("W1", "WX"))]
        with pytest.raises(WorkflowError, match="WX"):
            Workflow(state, ScriptedBackend([]), TraceLog())

    def test_overlapping_preset_matching_rejected(self):
        state = two_stage_state()
        state.matching_groups = [
            MatchingGroup(kind="equal", members=("W1", "W2")),
            MatchingGroup(kind="ratio", members=("W2", "W3"), ratios=(1.0, 2.0)),
        ]
        with pytest.raises(WorkflowError, match=r"\['W2'\] already in another group"):
            Workflow(state, ScriptedBackend([]), TraceLog())


class TestPhase2:
    def test_early_exit_once_goals_met(self):
        state = cs_state(goals={"M1": "saturation"}, point=CS_SAT)
        entries = [("dc_reviewer", dc_review(True)), ("dc_sizer", proposal(CS_SAT))]
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace).run_phase2()
        assert state.budgets.dc_sims == 1
        assert state.budgets.llm_calls == 2
        assert any("leaving phase 2" in w for w in warnings_of(trace))

    def test_cycle_cap_reached(self):
        state = cs_state(goals={"M1": "saturation"}, point=CS_TRIODE)
        entries = [
            ("dc_reviewer", dc_review(False)), ("dc_sizer", proposal(CS_TRIODE)),
        ] * 2
        trace = TraceLog()
        caps = PhaseCaps(phase2_max_cycles=2)
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase2()
        assert state.budgets.dc_sims == 2
        assert state.budgets.llm_calls == 4
        assert warnings_of(trace)[-1] == (
            "phase 2 cycle cap reached; continuing with the current point"
        )

    def test_failed_simulation_reported_as_data(self):
        netlist = """Overdetermined bias fixture
V1 a 0 DC 1.0
V2 a 0 DC {V2}
R1 a 0 1k
.end
"""
        state = WorkflowState(
            circuit=parse_netlist(netlist),
            space=ParameterSpace(entries=(SpaceEntry("V2", 1.5, 3.0, "V", "linear"),)),
            specs=(Spec("power_w", "<=", 1.0, "hard"),),
            model_cards=DEFAULT_MODEL_CARDS,
            ac_plan=AcPlan(input_source="V1", output_net="a"),
            budgets=BudgetLedger(),
        )
        state.dc_goals = {}
        state.sizing_history.append(HistoryEntry(point={"V2": 2.0}, source="initial_designer"))
        entries = [("dc_reviewer", dc_review(False)), ("dc_sizer", proposal({"V2": 2.5}))]
        trace = TraceLog()
        caps = PhaseCaps(phase2_max_cycles=1)
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase2()
        results = [e.payload for e in trace.events if e.kind == "sim_result"]
        assert len(results) == 1
        assert results[0]["ok"] is False
        assert "singular" in results[0]["error"].lower()
        # the reviewer is told about the failure through its context
        reviewer_input = next(
            e.payload["content"] for e in trace.events
            if e.kind == "agent_input" and e.actor == "dc_reviewer"
        )
        assert "simulation failed" in reviewer_input


    def test_non_positive_value_reported_as_data(self):
        # a linear range may reach 0; binding rejects the point, and the
        # run goes on with the failure recorded
        state = cs_state(goals={"M1": "saturation"}, point={"W1": 1e-5, "RL": 0.0})
        state.space = ParameterSpace(entries=(
            SpaceEntry("W1", 1e-6, 1e-4, "m", "log"),
            SpaceEntry("RL", 0.0, 1e6, "ohm", "linear"),
        ))
        entries = [("dc_reviewer", dc_review(False)), ("dc_sizer", proposal(CS_SAT))]
        trace = TraceLog()
        caps = PhaseCaps(phase2_max_cycles=1)
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase2()
        (result,) = [e.payload for e in trace.events if e.kind == "sim_result"]
        assert (result["ok"], result["error"]) == (False, "R1: R = 0 must be strictly positive")
        assert state.sizing_history[0].note == "simulation failed: R1: R = 0 must be strictly positive"


class TestPhase3:
    def test_reviewer_elects_dc_sim(self):
        state = cs_state(specs=UNREACHABLE, point=CS_SAT)
        entries = [
            ("specs_reviewer", specs_review(next_tool="dc_sim")),
            ("reasoning_sizer", proposal(CS_TRIODE)),
            ("specs_reviewer", specs_review(next_tool="full_sim")),
            ("reasoning_sizer", proposal(CS_SAT)),
            ("specs_reviewer", specs_review(next_tool="full_sim")),
            ("reasoning_sizer", proposal(CS_TRIODE)),
        ]
        trace = TraceLog()
        caps = PhaseCaps(phase3_max_full_sims=2)
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase3()
        assert state.budgets.full_sims_llm == 2
        assert state.budgets.dc_sims == 1
        assert state.budgets.llm_calls == 6
        assert any("full-simulation cap reached" in w for w in warnings_of(trace))

    def test_cycle_cap_reached(self):
        # 2 x 2 cycles; the last one spends the second full simulation, and
        # the note still names the cycle cap
        state = cs_state(specs=UNREACHABLE, point=CS_SAT)
        entries = []
        for next_tool in ("dc_sim", "dc_sim", "full_sim", "dc_sim"):
            entries += [
                ("specs_reviewer", specs_review(next_tool=next_tool)),
                ("reasoning_sizer", proposal(CS_TRIODE)),
            ]
        trace = TraceLog()
        caps = PhaseCaps(phase3_max_full_sims=2)
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase3()
        assert state.budgets.full_sims_llm == 2
        assert state.budgets.dc_sims == 2
        assert state.budgets.llm_calls == 8
        assert warnings_of(trace)[-1] == "phase 3 cycle cap reached"

    def test_exits_when_target_met(self):
        state = cs_state(specs=EASY, point=CS_SAT)
        entries = [
            ("specs_reviewer", specs_review()),
            ("reasoning_sizer", proposal(CS_SAT)),
        ]
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace).run_phase3()
        assert state.budgets.full_sims_llm == 1
        assert state.best_fom() == 1.0
        assert any("leaving phase 3" in w for w in warnings_of(trace))

    def test_failed_transient_still_scores_the_point(self, monkeypatch):
        def no_transient(*args, **kwargs):
            raise NonConvergence(1e-3, 50, "transient step 1 (t = 1e-09 s)")

        monkeypatch.setattr("amsizer.workflow.solve_transient", no_transient)
        state = cs_state(specs=UNREACHABLE, point=CS_SAT)
        state.tran_plan = TranPlan(source="VIN", step_v=0.1, t_stop=1e-6, dt=1e-9)
        entries = [
            ("specs_reviewer", specs_review()),
            ("reasoning_sizer", proposal(CS_SAT)),
        ]
        trace = TraceLog()
        caps = PhaseCaps(phase3_max_full_sims=1)
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase3()
        (result,) = [e.payload for e in trace.events if e.kind == "sim_result"]
        assert result["ok"] is True
        assert "gain_db" in result["metrics"]
        assert "slew_rate_vps" not in result["metrics"]
        simulated = next(e for e in state.sizing_history if e.report is not None)
        assert simulated.note.startswith("transient failed: Newton did not converge")
        assert any("transient failed:" in w for w in warnings_of(trace))


class TestPhase4:
    def test_optimizer_budget_clamp_and_call_cap(self):
        state = cs_state(specs=UNREACHABLE, point=CS_SAT)
        caps = PhaseCaps(
            phase4_max_cycles=2, phase4_max_optimizer_calls=1, phase4_budget_cap=5
        )
        entries = [
            ("advisor_reviewer", advisor_review(advise=True)),
            ("equipped_sizer", optimize_decision(budget=500, algorithm="de")),
            ("advisor_reviewer", advisor_review(advise=True)),
            ("equipped_sizer", optimize_decision(budget=10, algorithm="de")),
        ]
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase4()
        ledger = state.budgets
        assert ledger.llm_calls == 4
        assert ledger.opt_calls == 1
        assert ledger.full_sims_opt == 5  # budget clamped from 500
        assert ledger.full_sims_llm == 2  # one sim per cycle
        messages = warnings_of(trace)
        assert any("optimizer budget clamped from 500 to 5" in w for w in messages)
        assert any("optimizer call cap reached" in w for w in messages)
        assert any("phase 4 cycle cap reached" in w for w in messages)
        opt_entries = [e for e in state.sizing_history if e.source == "optimizer"]
        assert len(opt_entries) == 5
        # no transient, no note: the optimizer's sim_result payloads carry none
        assert all(e.note == "" for e in opt_entries)
        assert not any(
            "note" in e.payload for e in trace.events
            if e.kind == "sim_result" and e.actor == "optimizer"
        )
        resume = [e for e in state.sizing_history if e.note == "resume from optimizer best"]
        assert len(resume) == 1

    def test_optimizer_point_with_failed_transient_keeps_the_note(self, monkeypatch):
        def no_transient(*args, **kwargs):
            raise NonConvergence(1e-3, 50, "transient step 1 (t = 1e-09 s)")

        monkeypatch.setattr("amsizer.workflow.solve_transient", no_transient)
        state = cs_state(specs=UNREACHABLE, point=CS_SAT)
        state.tran_plan = TranPlan(source="VIN", step_v=0.1, t_stop=1e-6, dt=1e-9)
        caps = PhaseCaps(phase4_max_cycles=1, phase4_budget_cap=3)
        entries = [
            ("advisor_reviewer", advisor_review(advise=True)),
            ("equipped_sizer", optimize_decision(budget=3, algorithm="de")),
        ]
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase4()
        results = [
            e.payload for e in trace.events
            if e.kind == "sim_result" and e.actor == "optimizer"
        ]
        assert len(results) == 3
        for result in results:
            assert result["ok"] is True
            assert "gain_db" in result["metrics"]
            assert "slew_rate_vps" not in result["metrics"]
            assert result["note"].startswith("transient failed: Newton did not converge")
        opt_entries = [e for e in state.sizing_history if e.source == "optimizer"]
        assert len(opt_entries) == 3
        assert all(e.report is not None for e in opt_entries)
        assert all(e.note.startswith("transient failed: ") for e in opt_entries)

    def test_ratio_group_proposal_stays_feasible_for_the_optimizer(self):
        # W7 = 4 * W5 within [1e-6, 2e-4] caps W5 at 5e-5; a proposal of
        # W5 = 1e-4 must not be simulated with the ratio broken, or the
        # optimizer's initial points leave the feasible set
        state = two_stage_state()
        state.matching_groups = [MatchingGroup("ratio", ("W5", "W7"), ratios=(1.0, 4.0))]
        feasible = FeasibleSet(state.space, state.matching_groups)
        start = feasible.project(TWO_STAGE_BEST)
        state.sizing_history.append(HistoryEntry(point=start, source="initial_designer"))
        caps = PhaseCaps(phase4_max_cycles=2, phase4_budget_cap=3)
        entries = [
            ("advisor_reviewer", advisor_review(advise=False)),
            ("equipped_sizer", json.dumps({
                "action": "propose", "parameters": {**start, "W5": 1e-4},
                "rationale": "more second-stage current",
            })),
            ("advisor_reviewer", advisor_review(advise=True)),
            ("equipped_sizer", optimize_decision(budget=3, algorithm="bo")),
        ]
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase4()
        assert any(
            "equipped_sizer: matching/bounds adjusted W5, W7" in w for w in warnings_of(trace)
        )
        assert not any("optimizer failed" in w for w in warnings_of(trace))
        proposed = next(e for e in state.sizing_history if e.source == "equipped_sizer")
        assert (proposed.point["W5"], proposed.point["W7"]) == (5e-5, 2e-4)
        assert state.budgets.opt_calls == 1
        assert state.budgets.full_sims_opt == 3
        for entry in state.sizing_history:
            assert feasible.project(entry.point) == entry.point

    def test_advisor_sees_deterministic_stagnation_signal(self):
        state = cs_state(specs=UNREACHABLE, point=CS_SAT)
        caps = PhaseCaps(phase4_max_cycles=1)
        entries = [
            ("advisor_reviewer", advisor_review(advise=False)),
            ("equipped_sizer", json.dumps({
                "action": "propose", "parameters": CS_TRIODE, "rationale": "try bigger",
            })),
        ]
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase4()
        advisor_input = next(
            e.payload["content"] for e in trace.events
            if e.kind == "agent_input" and e.actor == "advisor_reviewer"
        )
        assert "Stagnation signal" in advisor_input
        assert "still improving" in advisor_input

    def test_propose_path_appends_point(self):
        state = cs_state(specs=UNREACHABLE, point=CS_SAT)
        caps = PhaseCaps(phase4_max_cycles=1)
        entries = [
            ("advisor_reviewer", advisor_review(advise=False)),
            ("equipped_sizer", json.dumps({
                "action": "propose", "parameters": CS_TRIODE, "rationale": "try bigger",
            })),
        ]
        trace = TraceLog()
        Workflow(state, ScriptedBackend(entries), trace, caps=caps).run_phase4()
        assert state.sizing_history[-1].source == "equipped_sizer"
        assert state.sizing_history[-1].point == CS_TRIODE
        assert state.budgets.opt_calls == 0

    def test_no_calls_when_target_already_met(self):
        state = cs_state(specs=EASY)
        state.sizing_history.append(HistoryEntry(
            point=dict(CS_SAT),
            source="engine",
            report=MetricReport(values={"gain_db": 1.0}, satisfied={"gain_db": True}, fom=1.0),
        ))
        trace = TraceLog()
        Workflow(state, ScriptedBackend([]), trace).run_phase4()
        assert state.budgets.llm_calls == 0
        assert any("leaving phase 4" in w for w in warnings_of(trace))


def section(trace, agent: str, title: str) -> str:
    """The body of `agent`'s extra prompt section `title`."""
    content = next(
        e.payload["content"] for e in trace.events
        if e.kind == "agent_input" and e.actor == agent
    )
    return content.split(f"## {title}\n\n", 1)[1].split("\n\n## Task", 1)[0]


def history_sources(state, trace):
    return [e.source for e in state.sizing_history]


class TestSchemaFallbacks:
    """What each agent falls back to once its three attempts are spent."""

    PHASES = {
        1: ("circuit_explainer", "matching_finder", "dc_goal_setter", "initial_designer"),
        2: ("dc_reviewer", "dc_sizer"),
        3: ("specs_reviewer", "reasoning_sizer"),
        4: ("advisor_reviewer", "equipped_sizer"),
    }
    VALID = {
        "circuit_explainer": json.dumps({"explanation": "one stage"}),
        "matching_finder": json.dumps({"groups": [], "rationale": "nothing matches"}),
        "dc_goal_setter": json.dumps({"goals": {"M1": "saturation"}, "rationale": "gain"}),
        "initial_designer": proposal(CS_SAT),
        "dc_reviewer": dc_review(False),
        "dc_sizer": proposal(CS_SAT),
        "specs_reviewer": specs_review(),
        "reasoning_sizer": proposal(CS_SAT),
        "advisor_reviewer": advisor_review(advise=False),
        "equipped_sizer": json.dumps({
            "action": "propose", "parameters": CS_SAT, "rationale": "try",
        }),
    }
    # agent -> (schema, warning consequence, observed fallback, expected)
    FALLBACKS = {
        "circuit_explainer": (
            "explanation", "continuing without explanation",
            lambda st, tr: st.circuit_explanation, "(explanation unavailable)",
        ),
        "matching_finder": (
            "matching_groups", "continuing with empty matching",
            lambda st, tr: st.matching_groups, [],
        ),
        "dc_goal_setter": (
            "dc_goals", "continuing without DC goals", lambda st, tr: st.dc_goals, {},
        ),
        "initial_designer": (
            "sizing_proposal", "falling back to the space midpoint",
            lambda st, tr: st.sizing_history[-1].point, cs_space().midpoint(),
        ),
        "dc_reviewer": (
            "dc_review", "using an empty review",
            lambda st, tr: section(tr, "dc_sizer", "DC reviewer feedback"), "(none)",
        ),
        "dc_sizer": (
            "sizing_proposal", "keeping the current point",
            history_sources, ["initial_designer"],
        ),
        "specs_reviewer": (
            "specs_review", "using an empty review",
            lambda st, tr: section(tr, "reasoning_sizer", "Specs reviewer feedback"), "(none)",
        ),
        "reasoning_sizer": (
            "sizing_proposal", "keeping the current point",
            history_sources, ["initial_designer"],
        ),
        "advisor_reviewer": (
            "advisor_review", "using an empty review",
            lambda st, tr: section(tr, "equipped_sizer", "Advisor assessment"),
            "Advisor stagnation verdict: false.\n"
            "Advisor recommends optimizer: false.\n"
            "Optimizer calls remaining: 3; per-call budget cap: 300.",
        ),
        "equipped_sizer": (
            "equipped_sizing", "keeping the current point",
            history_sources, ["initial_designer"],
        ),
    }

    @pytest.mark.parametrize("agent", list(FALLBACKS))
    def test_spent_retries_fall_back(self, agent):
        phase = next(p for p, agents in self.PHASES.items() if agent in agents)
        entries = []
        for name in self.PHASES[phase]:
            entries += [(name, "not json")] * 3 if name == agent else [(name, self.VALID[name])]
        # goals preset so the DC goal setter's fallback shows; unmet at CS_TRIODE
        state = cs_state(goals={"M1": "saturation"}, point=None if phase == 1 else CS_TRIODE)
        trace = TraceLog()
        caps = PhaseCaps(phase2_max_cycles=1, phase3_max_full_sims=1, phase4_max_cycles=1)
        workflow = Workflow(state, ScriptedBackend(entries), trace, caps=caps)
        getattr(workflow, f"run_phase{phase}")()
        schema, consequence, observe, expected = self.FALLBACKS[agent]
        assert (
            f"{agent}: schema {schema!r} not satisfied after 3 attempt(s); "
            f"last violation: no JSON object found in the response; {consequence}"
        ) in warnings_of(trace)
        assert observe(state, trace) == expected
        assert state.budgets.llm_calls == len(entries)
        assert [e.kind for e in trace.events].count("schema_retry") == 2


class TestStagnation:
    def test_short_history_is_not_stagnation(self):
        assert detect_stagnation([0.1] * 4) is False

    def test_steady_improvement_is_not_stagnation(self):
        assert detect_stagnation([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]) is False

    def test_plateau_detected(self):
        assert detect_stagnation([0.3, 0.31, 0.312, 0.313, 0.313, 0.313]) is True

    def test_improvement_at_threshold_is_not_stagnation(self):
        assert detect_stagnation([0.5, 0.5, 0.5, 0.5, 0.51]) is False

    def test_best_so_far_ignores_dips(self):
        assert detect_stagnation([0.5, 0.1, 0.2, 0.1, 0.3, 0.2]) is True


class TestMinimalFullRun:
    def test_happy_path_through_all_gates(self):
        state = cs_state(specs=EASY, goals=None)
        entries = [
            ("circuit_explainer", json.dumps({"explanation": "one stage"})),
            ("matching_finder", json.dumps({"groups": [], "rationale": ""})),
            ("dc_goal_setter", json.dumps(
                {"goals": {"M1": "saturation"}, "rationale": "gain"})),
            ("initial_designer", proposal(CS_SAT)),
            ("dc_reviewer", dc_review(True)),
            ("dc_sizer", proposal(CS_SAT)),
            ("specs_reviewer", specs_review()),
            ("reasoning_sizer", proposal(CS_SAT)),
        ]
        backend = ScriptedBackend(entries)
        trace = TraceLog()
        result = Workflow(state, backend, trace).run()
        assert result.status == "success"
        assert result.best_fom == 1.0
        assert result.best_point == CS_SAT
        assert result.accounting == {
            "llm_calls": 8, "opt_calls": 0, "dc_sims": 1,
            "full_sims_llm": 1, "full_sims_opt": 0, "full_sims_total": 1,
        }
        assert backend.remaining == 0
