"""The ten workflow agents: role prompts, context needs, tools, schemas.

Role prompts are text assets shipped under amsizer/prompts/ — they are
data, not code.  Tool access is fixed per agent: phase-1 agents get no
tools, the DC Reviewer gets dc_sim, the Specs and Advisor Reviewers get
full_sim and dc_sim, and only the Equipped Sizer may invoke the
optimizer.  The orchestrator performs the tool runs on each agent's
behalf so the ledger stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources

_LOOP_CONTEXT = ("netlist", "explanation", "dc_goals", "latest_result", "history")


@cache
def load_role_prompt(name: str) -> str:
    return resources.files("amsizer").joinpath(f"prompts/{name}.md").read_text(encoding="utf-8")


@dataclass(frozen=True)
class AgentSpec:
    name: str
    context_keys: tuple[str, ...]
    tools: tuple[str, ...]
    output_schema: str
    task: str

    @property
    def role_prompt(self) -> str:
        return load_role_prompt(self.name)


AGENTS: dict[str, AgentSpec] = {
    spec.name: spec
    for spec in (
        AgentSpec(
            name="circuit_explainer",
            context_keys=("netlist",),
            tools=(),
            output_schema="explanation",
            task=(
                "Identify the topology of this circuit and explain the role of every "
                "device: signal path, loads, current mirrors, bias structure, and which "
                "sizing parameters control which behaviors."
            ),
        ),
        AgentSpec(
            name="matching_finder",
            context_keys=("netlist", "explanation"),
            tools=(),
            output_schema="matching_groups",
            task=(
                "List the sizing parameters that must be matched for symmetry or mirror "
                "ratios: equal groups for identical devices (differential pairs, equal "
                "lengths) and ratio groups for scaled mirrors. Only use parameter names "
                "from the sizing parameter list. Return an empty list if nothing needs "
                "matching."
            ),
        ),
        AgentSpec(
            name="dc_goal_setter",
            context_keys=("netlist", "explanation"),
            tools=(),
            output_schema="dc_goals",
            task=(
                "Assign the operating region each transistor must sit in for the circuit "
                "to work as intended (normally saturation for gain and mirror devices)."
            ),
        ),
        AgentSpec(
            name="initial_designer",
            context_keys=("netlist", "explanation", "dc_goals"),
            tools=(),
            output_schema="sizing_proposal",
            task=(
                "Propose a plausible first value for every sizing parameter, within its "
                "stated range, that should bias the transistors toward their goal regions."
            ),
        ),
        AgentSpec(
            name="dc_reviewer",
            context_keys=_LOOP_CONTEXT,
            tools=("dc_sim",),
            output_schema="dc_review",
            task=(
                "Compare each transistor's simulated operating region against its goal. "
                "Report whether all goals are met, list every discrepancy as "
                "'device: observed vs goal', and suggest concrete sizing modifications."
            ),
        ),
        AgentSpec(
            name="dc_sizer",
            context_keys=_LOOP_CONTEXT,
            tools=(),
            output_schema="sizing_proposal",
            task=(
                "Using the reviewer's feedback, propose new values for all sizing "
                "parameters that move every transistor into its goal region."
            ),
        ),
        AgentSpec(
            name="specs_reviewer",
            context_keys=_LOOP_CONTEXT,
            tools=("full_sim", "dc_sim"),
            output_schema="specs_review",
            task=(
                "Critique the latest result against the performance targets: which "
                "metrics fail, by how much, and what trade-off is limiting. Give the "
                "sizer specific guidance, and choose the next measurement: 'full_sim' "
                "for the full metric suite or 'dc_sim' when only bias health matters."
            ),
        ),
        AgentSpec(
            name="reasoning_sizer",
            context_keys=_LOOP_CONTEXT,
            tools=(),
            output_schema="sizing_proposal",
            task=(
                "Using the reviewer's critique and the sizing history, propose new values "
                "for all sizing parameters that improve the failing metrics without "
                "breaking the ones already met."
            ),
        ),
        AgentSpec(
            name="advisor_reviewer",
            context_keys=_LOOP_CONTEXT,
            tools=("full_sim", "dc_sim"),
            output_schema="advisor_review",
            task=(
                "Assess optimization progress. Decide whether the search has stagnated "
                "(a deterministic stagnation signal is included in your context), whether "
                "to advise handing over to the numerical optimizer, and which measurement "
                "to run next."
            ),
        ),
        AgentSpec(
            name="equipped_sizer",
            context_keys=_LOOP_CONTEXT,
            tools=("optimizer",),
            output_schema="equipped_sizing",
            task=(
                "Either propose new parameter values yourself (action 'propose') or hand "
                "the search to the numerical optimizer (action 'optimize' with a budget "
                "and algorithm 'bo' or 'de'). Prefer the optimizer when the advisor "
                "reports stagnation."
            ),
        ),
    )
}
