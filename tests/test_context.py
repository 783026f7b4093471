"""Tests for deterministic prompt-context rendering."""

from pathlib import Path

import pytest

from amsizer import workflow
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
    serialize_netlist,
)
from amsizer.simulator import Topology, solve_ac, solve_dc
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
        bound = bind_parameters(Topology(circuit, DEFAULT_MODEL_CARDS), space, POINT)
        dc = solve_dc(bound)
        ac = solve_ac(bound, dc, "VIN", "out", 1.0, 1e9, 20)
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


# ---------------------------------------------------------------------------
# the cached sections against an uncached reference renderer

def _fmt(v):
    return f"{v:.6g}"


def _fmt_point(point, names):
    return ", ".join(f"{n}={_fmt(point[n])}" for n in names if n in point)


def _ref_netlist(state):
    lines = ["## Circuit netlist", "", serialize_netlist(state.circuit).rstrip(), ""]
    lines += ["## Sizing parameters", ""]
    for e in state.space.entries:
        unit = f" {e.unit}" if e.unit else ""
        scale = ", log scale" if e.scale == "log" else ""
        lines.append(f"- {e.name}: {_fmt(e.lo)} to {_fmt(e.hi)}{unit}{scale}")
    if state.specs:
        lines += ["", "## Performance targets", ""]
        for s in state.specs:
            hard = "hard" if s.hardness == "hard" else "soft objective"
            lines.append(f"- {s.metric} {s.direction} {_fmt(s.target)} ({hard})")
    if state.matching_groups:
        lines += ["", "## Matching constraints", ""]
        for g in state.matching_groups:
            if g.kind == "equal":
                lines.append(f"- equal: {', '.join(g.members)}")
            else:
                ratio = ":".join(_fmt(r) for r in g.ratios)
                lines.append(f"- ratio {ratio}: {', '.join(g.members)}")
    return "\n".join(lines)


def _ref_explanation(state):
    return f"## Circuit explanation\n\n{state.circuit_explanation.strip() or '(not available)'}"


def _ref_dc_goals(state):
    lines = ["## DC operating-region goals", ""]
    lines += [f"- {d}: {state.dc_goals[d]}" for d in sorted(state.dc_goals)] or ["(none set)"]
    return "\n".join(lines)


def _ref_latest_result(state):
    lines = ["## Latest simulation result", ""]
    simulated = [e for e in state.sizing_history if e.dc is not None or e.report is not None]
    if not simulated:
        lines.append("(no simulation results yet)")
        return "\n".join(lines)
    entry = simulated[-1]
    lines.append(f"Point ({entry.source}): {_fmt_point(entry.point, state.space.names)}")
    if entry.dc is not None:
        lines += ["", "Transistor operating points:",
                  "| device | region | vgs_V | vds_V | id_A | gm_S | gds_S |",
                  "|---|---|---|---|---|---|---|"]
        for dev in sorted(entry.dc.transistor_ops):
            op = entry.dc.transistor_ops[dev]
            lines.append(
                f"| {dev} | {op['region']} | {_fmt(op['vgs_V'])} | {_fmt(op['vds_V'])} "
                f"| {_fmt(op['id_A'])} | {_fmt(op['gm_S'])} | {_fmt(op['gds_S'])} |"
            )
    if entry.report is not None:
        lines += ["", "Metrics:", "| metric | value | target | met |", "|---|---|---|---|"]
        by_metric = {s.metric: s for s in state.specs}
        for name in sorted(entry.report.values):
            spec = by_metric.get(name)
            target = f"{spec.direction} {_fmt(spec.target)}" if spec else "-"
            met = ("yes" if entry.report.satisfied[name] else "no") if spec else "-"
            lines.append(f"| {name} | {_fmt(entry.report.values[name])} | {target} | {met} |")
        lines.append(f"Figure of merit: {_fmt(entry.report.fom)}")
    if entry.note:
        lines.append(f"Note: {entry.note}")
    return "\n".join(lines)


def _ref_history(state):
    lines = [f"## Sizing history (newest {state.history_tail})", ""]
    tail = state.sizing_history[-state.history_tail:]
    if not tail:
        lines.append("(empty)")
        return "\n".join(lines)
    for i, entry in enumerate(tail, start=len(state.sizing_history) - len(tail) + 1):
        if entry.fom is not None:
            status = f"fom={_fmt(entry.fom)}"
        elif entry.dc is not None:
            ops = entry.dc.transistor_ops
            regions = ",".join(f"{d}:{ops[d]['region']}" for d in sorted(ops))
            status = f"dc regions {regions}" if regions else "dc only"
        else:
            status = "not simulated"
        if entry.note:
            status = f"{status} | {entry.note}"
        lines.append(f"{i}. [{entry.source}] {_fmt_point(entry.point, state.space.names)} -> {status}")
    return "\n".join(lines)


REFERENCE_SECTIONS = (
    ("netlist", _ref_netlist), ("explanation", _ref_explanation), ("dc_goals", _ref_dc_goals),
    ("latest_result", _ref_latest_result), ("history", _ref_history),
)


def reference_context(state, spec, extra=()):
    """assemble_context as it rendered before any section was cached."""
    parts = [render(state) for key, render in REFERENCE_SECTIONS if key in spec.context_keys]
    parts += [f"## {title}\n\n{body}" for title, body in extra]
    parts.append(f"## Task\n\n{spec.task}")
    return "\n\n".join(parts) + "\n"


def assert_matches_reference(state, agent, extra=()):
    text = assemble_context(state, AGENTS[agent], extra)
    assert text == reference_context(state, AGENTS[agent], extra)
    return text


class TestRenderedOnce:
    @pytest.mark.parametrize("run,calls", [("two_stage_run.yaml", 34), ("folded_cascode_run.yaml", 54)])
    def test_every_agent_call_of_a_scripted_session(self, monkeypatch, run, calls):
        rendered = []

        def checked(state, spec, extra=()):
            text = assemble_context(state, spec, extra)
            assert text == reference_context(state, spec, extra), spec.name
            rendered.append(spec.name)
            return text

        monkeypatch.setattr(workflow, "assemble_context", checked)
        cfg = load_config(str(DATA / run))
        Workflow(build_state(cfg), build_backend(cfg), TraceLog(), seed=cfg.seed).run()
        assert len(rendered) == calls

    def test_matching_groups_set_after_the_first_render(self):
        state = make_state()
        before = assert_matches_reference(state, "dc_sizer")
        state.matching_groups = [MatchingGroup(kind="ratio", members=("W1", "RL"), ratios=(1.0, 2.0))]
        assert "- ratio 1:2: W1, RL" in assert_matches_reference(state, "dc_sizer")
        state.matching_groups.append(MatchingGroup(kind="equal", members=("W1", "RL")))
        assert "- equal: W1, RL" in assert_matches_reference(state, "dc_sizer")
        state.matching_groups = []
        assert assert_matches_reference(state, "dc_sizer") == before

    @pytest.mark.parametrize("agent", ["dc_reviewer", "specs_reviewer", "dc_sizer"])
    def test_results_set_after_the_entry_was_rendered(self, agent):
        state = make_state()
        simulated = make_state(simulated=True).sizing_history[0]
        entry = state.sizing_history[0]
        assert "(no simulation results yet)" in assert_matches_reference(state, agent)
        entry.dc = simulated.dc
        assert "not simulated" not in assert_matches_reference(state, agent)
        entry.report = simulated.report
        assert "fom=1" in assert_matches_reference(state, agent)
        entry.note = "transient failed: step 3"
        assert "transient failed: step 3" in assert_matches_reference(state, agent)
        entry.note = ""
        assert_matches_reference(state, agent)

    @pytest.mark.parametrize("tail", [10, 1])
    def test_history_tail_window_slides(self, tail):
        state = make_state(simulated=True)
        state.history_tail = tail
        for i in range(13):
            assert_matches_reference(state, "reasoning_sizer")
            state.sizing_history.append(
                HistoryEntry(point={"W1": 2e-6 + i * 1e-7, "RL": 2e3}, source="dc_sizer")
            )
        text = assert_matches_reference(state, "reasoning_sizer")
        assert f"## Sizing history (newest {tail})" in text
        assert "14. [dc_sizer]" in text
        assert ("5. [dc_sizer]" in text) == (tail == 10)
