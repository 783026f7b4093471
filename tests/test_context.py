"""Tests for deterministic prompt-context rendering."""

from pathlib import Path

import pytest

from amsizer.agents import AGENTS
from amsizer.config import build_backend, build_state, load_config
from amsizer.context import assemble_context
from amsizer.metrics import Spec, evaluate, extract_metrics
from amsizer.mosfet import DEFAULT_MODEL_CARDS
from amsizer.netlist import (
    MatchingGroup,
    ParameterSpace,
    SpaceEntry,
    bind_parameters,
    parse_netlist,
)
from amsizer.simulator import solve_ac, solve_dc
from amsizer.state import AcPlan, BudgetLedger, HistoryEntry, WorkflowState
from amsizer.trace import TraceLog
from amsizer.workflow import Workflow

DATA = Path(__file__).parent / "data"

NETLIST = """One-transistor common-source test stage
VDD vdd 0 DC 1.8
VIN in 0 DC 0.9 AC 1
M1 out in 0 0 NMOS W={W1} L=1u
R1 vdd out {RL}
CL out 0 1p
.end
"""

POINT = {"W1": 1e-5, "RL": 1e3}


def make_state(simulated=False) -> WorkflowState:
    circuit = parse_netlist(NETLIST)
    space = ParameterSpace(entries=(
        SpaceEntry("W1", 1e-6, 1e-4, "m", "log"),
        SpaceEntry("RL", 1e3, 1e6, "ohm", "log"),
    ))
    state = WorkflowState(
        circuit=circuit,
        space=space,
        specs=(Spec("gain_db", ">=", 0.5, "hard"),
               Spec("power_w", "<=", 1e-3, "soft_objective")),
        model_cards=DEFAULT_MODEL_CARDS,
        ac_plan=AcPlan(input_source="VIN", output_net="out"),
        budgets=BudgetLedger(),
    )
    state.circuit_explanation = "A single NMOS common-source stage."
    state.dc_goals = {"M1": "saturation"}
    state.matching_groups = [MatchingGroup(kind="equal", members=("W1", "RL"))] if False else []
    entry = HistoryEntry(point=dict(POINT), source="initial_designer")
    if simulated:
        bound = bind_parameters(circuit, space, POINT)
        dc = solve_dc(bound, DEFAULT_MODEL_CARDS)
        ac = solve_ac(bound, DEFAULT_MODEL_CARDS, dc, "VIN", "out", 1.0, 1e9, 20)
        entry.dc = dc
        entry.report = evaluate(extract_metrics(ac, dc), list(state.specs))
    state.sizing_history.append(entry)
    return state


class TestSections:
    def test_netlist_section_lists_problem(self):
        text = assemble_context(make_state(), AGENTS["circuit_explainer"])
        assert "## Circuit netlist" in text
        assert "M1 out in 0 0 NMOS W={W1} L=1e-06" in text
        assert "## Sizing parameters" in text
        assert "- W1: 1e-06 to 0.0001 m, log scale" in text
        assert "## Performance targets" in text
        assert "- gain_db >= 0.5 (hard)" in text
        assert "- power_w <= 0.001 (soft objective)" in text
        assert text.endswith("## Task\n\n" + AGENTS["circuit_explainer"].task + "\n")

    def test_explainer_sees_only_netlist_and_task(self):
        text = assemble_context(make_state(simulated=True), AGENTS["circuit_explainer"])
        assert "## Circuit explanation" not in text
        assert "## Latest simulation result" not in text
        assert "## Sizing history" not in text

    def test_reviewer_sees_operating_points(self):
        text = assemble_context(make_state(simulated=True), AGENTS["dc_reviewer"])
        assert "## DC operating-region goals" in text
        assert "- M1: saturation" in text
        assert "## Latest simulation result" in text
        assert "Point (initial_designer): W1=1e-05, RL=1000" in text
        assert "| device | region | vgs_V | vds_V | id_A | gm_S | gds_S |" in text
        assert "| M1 | saturation |" in text

    def test_metrics_table_shows_targets_and_verdicts(self):
        text = assemble_context(make_state(simulated=True), AGENTS["specs_reviewer"])
        assert "| metric | value | target | met |" in text
        assert "| gain_db |" in text and "| >= 0.5 | yes |" in text
        assert "Figure of merit: 1" in text

    def test_unsimulated_state_has_placeholder(self):
        text = assemble_context(make_state(simulated=False), AGENTS["dc_reviewer"])
        assert "(no simulation results yet)" in text
        assert "not simulated" in text  # history line status

    def test_history_tail_limits_and_numbers_entries(self):
        state = make_state(simulated=True)
        for i in range(12):
            state.sizing_history.append(
                HistoryEntry(point={"W1": 2e-6 + i * 1e-7, "RL": 2e3}, source="dc_sizer")
            )
        text = assemble_context(state, AGENTS["dc_sizer"])
        assert "## Sizing history (newest 10)" in text
        assert "13. [dc_sizer]" in text  # newest entry keeps its absolute index
        assert "1. [initial_designer]" not in text  # rolled out of the tail

    def test_extra_sections_come_before_task(self):
        text = assemble_context(
            make_state(), AGENTS["dc_sizer"],
            extra=(("DC reviewer feedback", "- M1: triode, goal saturation"),),
        )
        body = text.index("- M1: triode, goal saturation")
        assert text.index("## DC reviewer feedback") < body < text.index("## Task")

    def test_matching_constraints_rendered(self):
        state = make_state()
        state.matching_groups = [
            MatchingGroup(kind="ratio", members=("W1", "RL"), ratios=(1.0, 2.0)),
        ]
        text = assemble_context(state, AGENTS["dc_sizer"])
        assert "## Matching constraints" in text
        assert "- ratio 1:2: W1, RL" in text

    def test_same_state_renders_identically(self):
        state = make_state(simulated=True)
        a = assemble_context(state, AGENTS["specs_reviewer"])
        b = assemble_context(state, AGENTS["specs_reviewer"])
        assert a == b

    def test_unknown_context_key_rejected(self):
        from amsizer.agents import AgentSpec

        bogus = AgentSpec(
            name="dc_sizer", context_keys=("netlist", "bogus"),
            tools=(), output_schema="sizing_proposal", task="t",
        )
        with pytest.raises(KeyError, match="bogus"):
            assemble_context(make_state(), bogus)


class TestAgentRoster:
    def test_ten_agents_with_prompts(self):
        assert len(AGENTS) == 10
        for spec in AGENTS.values():
            prompt = spec.role_prompt
            assert prompt.strip()
            assert "JSON" in prompt

    def test_tool_access_is_least_privilege(self):
        assert AGENTS["circuit_explainer"].tools == ()
        assert AGENTS["matching_finder"].tools == ()
        assert AGENTS["dc_goal_setter"].tools == ()
        assert AGENTS["initial_designer"].tools == ()
        assert AGENTS["dc_reviewer"].tools == ("dc_sim",)
        assert AGENTS["dc_sizer"].tools == ()
        assert AGENTS["specs_reviewer"].tools == ("full_sim", "dc_sim")
        assert AGENTS["reasoning_sizer"].tools == ()
        assert AGENTS["advisor_reviewer"].tools == ("full_sim", "dc_sim")
        assert AGENTS["equipped_sizer"].tools == ("optimizer",)

    def test_phase_assignment(self):
        # the scripted folded-cascode run calls all ten agents
        cfg = load_config(str(DATA / "folded_cascode_run.yaml"))
        trace = TraceLog()
        Workflow(build_state(cfg), build_backend(cfg), trace, seed=cfg.seed).run()
        phases: dict[str, set[int]] = {}
        for e in trace.events:
            if e.kind == "agent_input":
                phases.setdefault(e.actor, set()).add(e.phase)
        assert {name: phase for name, (phase,) in phases.items()} == {
            "circuit_explainer": 1, "matching_finder": 1,
            "dc_goal_setter": 1, "initial_designer": 1,
            "dc_reviewer": 2, "dc_sizer": 2,
            "specs_reviewer": 3, "reasoning_sizer": 3,
            "advisor_reviewer": 4, "equipped_sizer": 4,
        }
