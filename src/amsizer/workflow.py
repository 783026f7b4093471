"""Four-phase agentic sizing orchestrator.

Phase 1 runs four analysis agents sequentially (explain, matching, DC
goals, initial sizing).  Phases 2-4 are review/size loops: each cycle
simulates the current point, asks a reviewer agent, then asks a sizer
agent for the next point, with the phase's exit condition checked
before every cycle and once after the last.  All agents draw on one
shared WorkflowState, every count flows through one budget ledger
mirrored into the trace, and every proposed point is forced through
matching and bounds before it is ever simulated.

The loop accounting contract: one loop cycle = one tool simulation plus
exactly two LLM calls (reviewer, sizer), so ledger arithmetic is exact
and auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .agents import AGENTS
from .context import assemble_context
from .llm import ChatRequest
from .metrics import evaluate, extract_metrics
from .netlist import BindingError, FeasibleSet, bind_parameters
from .optimizer import OptimizerRequest, optimize
from .schema import SchemaContext, SchemaFailure, enforce_schema, schema_hint
from .simulator import SimulationError, solve_ac, solve_dc, solve_transient
from .state import HistoryEntry, WorkflowState
from .trace import TraceLog

PHASE2_MAX_CYCLES = 8
PHASE3_MAX_FULL_SIMS = 20
PHASE4_MAX_CYCLES = 10
PHASE4_MAX_OPTIMIZER_CALLS = 3
PHASE4_BUDGET_CAP = 300
TOP_K_INITIAL_POINTS = 10
STAGNATION_WINDOW = 5
STAGNATION_MIN_IMPROVEMENT = 0.01


class WorkflowError(RuntimeError):
    pass


@dataclass
class PhaseCaps:
    phase2_max_cycles: int = PHASE2_MAX_CYCLES
    phase3_max_full_sims: int = PHASE3_MAX_FULL_SIMS
    phase4_max_cycles: int = PHASE4_MAX_CYCLES
    phase4_max_optimizer_calls: int = PHASE4_MAX_OPTIMIZER_CALLS
    phase4_budget_cap: int = PHASE4_BUDGET_CAP

    def __post_init__(self):
        for name in (
            "phase2_max_cycles",
            "phase3_max_full_sims",
            "phase4_max_cycles",
            "phase4_max_optimizer_calls",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.phase4_budget_cap < 1:
            raise ValueError("phase4_budget_cap must be >= 1")


@dataclass
class RunResult:
    status: str  # "success" | "incomplete"
    best_point: dict[str, float] | None
    best_fom: float | None
    state: WorkflowState
    accounting: dict[str, int]


def detect_stagnation(
    scored_foms,
    window: int = STAGNATION_WINDOW,
    min_improvement: float = STAGNATION_MIN_IMPROVEMENT,
) -> bool:
    """True iff best-so-far fom improved less than min_improvement over
    the last `window` scored evaluations (False with fewer entries)."""
    n = len(scored_foms)
    if n < window:
        return False
    # the best so far now, against the best so far `window` - 1 evaluations ago
    best_then = max(float("-inf"), *scored_foms[: n - window + 1])
    return max(float("-inf"), *scored_foms) - best_then < min_improvement


def _lines(*parts: str) -> str:
    """The non-empty parts, one per line."""
    return "\n".join(filter(None, parts))


def measure(state: WorkflowState, point: dict[str, float], full: bool = True):
    """Simulate one parameter point: (dc, report | None, note).

    The one bind -> DC -> AC -> transient -> metrics -> FoM pipeline,
    shared by the agents' tools, the optimizer they call, and the
    optimizer-only baseline.  A DC-only measurement (full=False) has no
    report.  A failed transient is not fatal: the report then lacks the
    transient metrics and `note` says why.  Raises SimulationError when
    the DC or AC analysis fails.  The circuit is compiled once per state;
    each point only binds its values to that topology.
    """
    bound = bind_parameters(state.topology(), state.space, point)
    dc = solve_dc(bound)
    if not full:
        return dc, None, ""
    plan = state.ac_plan
    ac = solve_ac(
        bound,
        dc,
        plan.input_source,
        plan.output_net,
        plan.f_lo,
        plan.f_hi,
        plan.pts_per_decade,
    )
    tran = None
    note = ""
    if state.tran_plan is not None:
        tp = state.tran_plan
        v0 = bound.value(tp.source, "DC")
        stimulus = {tp.source: [(0.0, v0 + tp.step_v)]}
        try:
            tran = solve_transient(bound, dc, stimulus, tp.t_stop, tp.dt)
        except SimulationError as exc:
            note = f"transient failed: {exc}"
    values = extract_metrics(ac, dc, tran, plan.output_net)
    return dc, evaluate(values, state.specs), note


class Workflow:
    """Drives one sizing run over a prepared WorkflowState."""

    def __init__(
        self,
        state: WorkflowState,
        backend,
        trace: TraceLog,
        caps: PhaseCaps | None = None,
        seed: int = 0,
    ):
        self.state = state
        self.backend = backend
        self.trace = trace
        self.caps = caps or PhaseCaps()
        self.seed = seed
        self.schema_ctx = SchemaContext(
            space=state.space,
            mosfet_names=tuple(d.id for d in state.circuit.mosfets()),
        )
        try:  # rebuilt in phase 1 if the matching finder supplies the groups
            self.feasible = FeasibleSet(state.space, state.matching_groups)
        except ValueError as exc:
            raise WorkflowError(str(exc)) from exc

    # ------------------------------------------------------------------
    # plumbing

    def _trace(self, kind: str, actor: str, payload: dict) -> None:
        self.trace.record(self.state.phase, actor, kind, payload)

    def _note(self, message: str) -> None:
        self._trace("warning", "engine", {"message": message})

    def _bump(self, counter: str, delta: int = 1) -> None:
        total = self.state.budgets.add(counter, delta)
        self._trace("budget", "engine", {"counter": counter, "delta": delta, "total": total})

    def _rationale_text(self, schema_id: str, payload: dict) -> str:
        if schema_id == "explanation":
            return payload["explanation"]
        if schema_id == "dc_review":
            return _lines(*payload["discrepancies"], payload["feedback"])
        if schema_id in ("specs_review", "advisor_review"):
            return _lines(payload["critique"], payload["feedback"])
        return payload.get("rationale", "")

    def _ask(self, agent_name: str, extra=()) -> dict:
        """One agent turn: context assembly, LLM call(s), schema enforcement.

        Every backend call increments llm_calls; schema retries are extra
        calls and extra budget, which is exactly how they should show up
        in the accounting.  Raises SchemaFailure after the retry budget.
        """
        spec = AGENTS[agent_name]
        content = assemble_context(self.state, spec, extra=extra)
        hint = schema_hint(spec.output_schema)
        self._trace(
            "agent_input",
            agent_name,
            {"schema": spec.output_schema, "content": content},
        )
        attempt = 0

        def call(user_content: str) -> str:
            resp = self.backend.complete(
                ChatRequest(
                    system_prompt=spec.role_prompt,
                    user_content=user_content,
                    schema_hint=hint,
                ),
                agent=agent_name,
            )
            self._bump("llm_calls")
            self._trace("agent_output", agent_name, {"text": resp.text})
            return resp.text

        def reprompt(violation: str) -> str:
            nonlocal attempt
            attempt += 1
            self._trace("schema_retry", agent_name, {"attempt": attempt, "violation": violation})
            correction = (
                f"{content}\n\n## Correction\n\nYour previous reply was rejected: "
                f"{violation}\nAnswer again with a single valid JSON object only."
            )
            return call(correction)

        out = enforce_schema(call(content), spec.output_schema, self.schema_ctx, reprompt=reprompt)
        for note in out.notes:
            self._note(f"{agent_name}: {note}")
        rationale = self._rationale_text(spec.output_schema, out.payload)
        if rationale:
            self._trace("rationale", agent_name, {"text": rationale})
        return out.payload

    def _ask_or(self, agent_name: str, consequence: str, fallback, extra=()):
        """`_ask`, or `fallback` once the schema retries are spent, with a
        warning that ends in `consequence`."""
        try:
            return self._ask(agent_name, extra)
        except SchemaFailure as exc:
            self._note(f"{agent_name}: {exc}; {consequence}")
            return fallback

    def _adopt(self, point: dict[str, float], actor: str) -> None:
        """Append `actor`'s proposal, projected into the feasible set of
        matching groups and bounds, as the current point."""
        projected = self.feasible.project(point)
        changed = [n for n in projected if projected[n] != point.get(n)]
        if changed:
            self._note(f"{actor}: matching/bounds adjusted {', '.join(changed)}")
        self.state.sizing_history.append(HistoryEntry(point=projected, source=actor))

    def _propose(self, agent_name: str, title: str, feedback: str) -> None:
        """Sizer turn on a reviewer's `feedback`, shown under `title`; on
        schema failure the current point is kept."""
        extra = ((title, feedback or "(none)"),)
        proposal = self._ask_or(agent_name, "keeping the current point", None, extra)
        if proposal is not None:
            self._adopt(proposal["parameters"], agent_name)

    def _targets_met(self) -> bool:
        best = self.state.best_fom()
        return best is not None and best >= 1.0

    # ------------------------------------------------------------------
    # simulation tool

    def _simulate(self, tool: str) -> HistoryEntry:
        """Run `tool` ("dc_sim" or "full_sim") on the current point.  Its
        results go to the last history entry if that has none yet, else
        to a new engine entry."""
        history = self.state.sizing_history
        entry = history[-1]
        if entry.dc is not None or entry.report is not None:
            entry = HistoryEntry(point=dict(entry.point), source="engine")
            history.append(entry)
        payload: dict = {"tool": tool, "source": entry.source, "point": dict(entry.point)}
        self._trace("tool_call", "engine", dict(payload))
        full = tool == "full_sim"
        self._bump("full_sims_llm" if full else "dc_sims")
        try:
            dc, report, note = measure(self.state, entry.point, full)
            entry.dc = dc
            entry.report = report
            if note:
                entry.note = note
                self._note(f"{entry.source}: {note}")
            payload["ok"] = True
            payload["regions"] = {
                dev: op["region"] for dev, op in sorted(dc.transistor_ops.items())
            }
            if report is not None:
                payload["metrics"] = dict(report.values)
                payload["fom"] = report.fom
        except (BindingError, SimulationError) as exc:
            entry.note = f"simulation failed: {exc}"
            payload["ok"] = False
            payload["error"] = str(exc)
        self._trace("sim_result", "engine", payload)
        return entry

    # ------------------------------------------------------------------
    # phase 1: sequential analysis agents

    def run_phase1(self) -> None:
        st = self.state
        st.phase = 1
        explanation = self._ask_or(
            "circuit_explainer",
            "continuing without explanation",
            {"explanation": "(explanation unavailable)"},
        )
        st.circuit_explanation = explanation["explanation"]
        if st.matching_groups:
            self._note("matching groups provided by configuration; matching finder skipped")
        else:
            found = self._ask_or("matching_finder", "continuing with empty matching", {"groups": []})
            st.matching_groups = list(found["groups"])
            self.feasible = FeasibleSet(st.space, st.matching_groups)
        goals = self._ask_or("dc_goal_setter", "continuing without DC goals", {"goals": {}})
        st.dc_goals = dict(goals["goals"])
        proposal = self._ask_or(
            "initial_designer",
            "falling back to the space midpoint",
            {"parameters": st.space.midpoint()},
        )
        self._adopt(proposal["parameters"], "initial_designer")

    # ------------------------------------------------------------------
    # phase 2: DC tuning loop

    def _dc_goals_met(self, entry: HistoryEntry | None) -> bool:
        if entry is None or entry.dc is None:
            return False
        regions = {dev: op["region"] for dev, op in entry.dc.transistor_ops.items()}
        return all(regions.get(dev) == goal for dev, goal in self.state.dc_goals.items())

    def run_phase2(self) -> None:
        max_cycles = self.caps.phase2_max_cycles
        self.state.phase = 2
        last_sim: HistoryEntry | None = None
        for cycle in range(max_cycles + 1):
            if self._dc_goals_met(last_sim):
                self._note("all DC operating-region goals met; leaving phase 2")
                return
            if cycle == max_cycles:
                self._note("phase 2 cycle cap reached; continuing with the current point")
                return
            last_sim = self._simulate("dc_sim")
            review = self._ask_or(
                "dc_reviewer",
                "using an empty review",
                {"goals_met": False, "discrepancies": (), "feedback": ""},
            )
            feedback = _lines(*(f"- {d}" for d in review["discrepancies"]), review["feedback"])
            self._propose("dc_sizer", "DC reviewer feedback", feedback)

    # ------------------------------------------------------------------
    # phase 3: reasoning-driven spec refinement loop

    def run_phase3(self) -> None:
        max_full_sims = self.caps.phase3_max_full_sims
        self.state.phase = 3
        full_sims_here = 0
        next_tool = "full_sim"
        # dc_sim cycles spend no full-sim budget, so bound total cycles too
        max_cycles = 2 * max_full_sims
        for cycle in range(max_cycles + 1):
            if self._targets_met():
                self._note("all hard targets met; leaving phase 3")
                return
            if cycle == max_cycles:
                self._note("phase 3 cycle cap reached")
                return
            if full_sims_here >= max_full_sims:
                self._note("phase 3 full-simulation cap reached")
                return
            self._simulate(next_tool)
            full_sims_here += next_tool == "full_sim"
            review = self._ask_or(
                "specs_reviewer",
                "using an empty review",
                {"critique": "", "feedback": "", "next_tool": "full_sim"},
            )
            next_tool = review["next_tool"]
            feedback = _lines(review["critique"], review["feedback"])
            self._propose("reasoning_sizer", "Specs reviewer feedback", feedback)

    # ------------------------------------------------------------------
    # phase 4: advised refinement with optimizer escalation

    def _run_optimizer(self, budget: int, algorithm: str) -> None:
        st = self.state
        inits = tuple(
            (dict(e.point), e.fom) for e in st.top_scored(TOP_K_INITIAL_POINTS)
        )
        request = OptimizerRequest(
            space=st.space,
            matching=tuple(st.matching_groups),
            initial_points=inits,
            budget=budget,
            algorithm=algorithm,
            seed=self.seed + st.budgets.opt_calls,
        )
        self._bump("opt_calls")
        self._trace(
            "tool_call",
            "equipped_sizer",
            {"tool": "optimizer", "algorithm": algorithm, "budget": budget},
        )
        # on_evaluation runs right after each objective call, so `latest`
        # holds that call's measurement whenever it succeeded
        latest = None

        def objective(point: dict[str, float]) -> float:
            nonlocal latest
            latest = measure(st, point)
            return latest[1].fom

        def on_evaluation(ev) -> None:
            self._bump("full_sims_opt")
            entry = HistoryEntry(
                point=dict(ev.point), source="optimizer", note=ev.error or ""
            )
            payload: dict = {
                "tool": "full_sim",
                "source": "optimizer",
                "point": dict(ev.point),
                "ok": ev.error is None,
            }
            if ev.error is None:
                entry.dc, entry.report, note = latest
                payload["metrics"] = dict(entry.report.values)
                payload["fom"] = entry.report.fom
                if note:
                    entry.note = payload["note"] = note
            else:
                payload["error"] = ev.error
            st.sizing_history.append(entry)
            self._trace("sim_result", "optimizer", payload)

        try:
            result = optimize(request, objective, on_evaluation=on_evaluation)
        except Exception as exc:  # degrade to reasoning-only continuation
            self._note(f"optimizer failed ({exc}); continuing with reasoning only")
            return
        if result.best_fom < 1.0:
            st.sizing_history.append(
                HistoryEntry(
                    point=dict(result.best_point),
                    source="equipped_sizer",
                    note="resume from optimizer best",
                )
            )

    def run_phase4(self) -> None:
        caps = self.caps
        st = self.state
        st.phase = 4
        next_tool = "full_sim"
        for cycle in range(caps.phase4_max_cycles + 1):
            if self._targets_met():
                self._note("all hard targets met; leaving phase 4")
                return
            if cycle == caps.phase4_max_cycles:
                self._note("phase 4 cycle cap reached; returning best point so far")
                return
            self._simulate(next_tool)
            stagnating = detect_stagnation(st.scored_foms())
            signal = (
                f"Deterministic check over the last {STAGNATION_WINDOW} scored evaluations: "
                f"{'stagnating' if stagnating else 'still improving'} "
                f"(threshold {STAGNATION_MIN_IMPROVEMENT})."
            )
            review = self._ask_or(
                "advisor_reviewer",
                "using an empty review",
                {"critique": "", "feedback": "", "stagnation": stagnating,
                 "advise_optimizer": False, "next_tool": "full_sim"},
                extra=(("Stagnation signal", signal),),
            )
            next_tool = review["next_tool"]
            calls_left = caps.phase4_max_optimizer_calls - st.budgets.opt_calls
            advisor_section = _lines(
                review["critique"],
                review["feedback"],
                f"Advisor stagnation verdict: {str(review['stagnation']).lower()}.",
                f"Advisor recommends optimizer: {str(review['advise_optimizer']).lower()}.",
                f"Optimizer calls remaining: {max(calls_left, 0)}; "
                f"per-call budget cap: {caps.phase4_budget_cap}.",
            )
            decision = self._ask_or(
                "equipped_sizer",
                "keeping the current point",
                None,
                extra=(("Advisor assessment", advisor_section),),
            )
            if decision is None:
                continue
            if decision["action"] == "propose":
                self._adopt(decision["parameters"], "equipped_sizer")
            elif calls_left <= 0:
                self._note("optimizer call cap reached; keeping the current point")
            else:
                budget = min(decision["optimizer_budget"], caps.phase4_budget_cap)
                if budget < decision["optimizer_budget"]:
                    self._note(
                        f"optimizer budget clamped from {decision['optimizer_budget']} "
                        f"to {budget}"
                    )
                self._run_optimizer(budget, decision["algorithm"])

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        st = self.state
        self.run_phase1()
        self.run_phase2()
        if not self._targets_met():
            self.run_phase3()
        if not self._targets_met():
            self.run_phase4()
        best = st.best_entry()
        if best is not None:
            best_point, best_fom = dict(best.point), best.fom
        else:
            best_point, best_fom = st.current_point, None
        return RunResult(
            status="success" if self._targets_met() else "incomplete",
            best_point=best_point,
            best_fom=best_fom,
            state=st,
            accounting=st.budgets.as_dict(),
        )
