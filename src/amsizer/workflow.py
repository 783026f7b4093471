"""Four-phase agentic sizing orchestrator.

Phase 1 runs four analysis agents sequentially (explain, matching, DC
goals, initial sizing).  Phases 2-4 are review/size loops: each cycle
simulates the current point, asks a reviewer agent, then asks a sizer
agent for the next point, with exit conditions checked at the top of
every cycle.  All agents draw on one shared WorkflowState, every count
flows through one budget ledger mirrored into the trace, and every
proposed point is forced through matching and bounds before it is ever
simulated.

The loop accounting contract: one loop cycle = one tool simulation plus
exactly two LLM calls (reviewer, sizer), so ledger arithmetic is exact
and auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .agents import AGENTS
from .context import assemble_context
from .llm import ChatRequest
from .metrics import evaluate, extract_metrics
from .netlist import FeasibleSet, bind_parameters
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
    if len(scored_foms) < window:
        return False
    best_so_far = []
    best = float("-inf")
    for f in scored_foms:
        best = max(best, f)
        best_so_far.append(best)
    return best_so_far[-1] - best_so_far[-window] < min_improvement


def _point_key(point: dict[str, float]) -> tuple:
    return tuple(sorted(point.items()))


def measure(state: WorkflowState, point: dict[str, float], full: bool = True):
    """Simulate one parameter point: (dc, report | None, note).

    The one bind -> DC -> AC -> transient -> metrics -> FoM pipeline,
    shared by the agents' tools, the optimizer they call, and the
    optimizer-only baseline.  A DC-only measurement (full=False) has no
    report.  A failed transient is not fatal: the report then lacks the
    transient metrics and `note` says why.  Raises SimulationError when
    the DC or AC analysis fails.  The returned DC solution drops its
    compiled circuit, so a history of them keeps no point's circuit alive.
    """
    bound = bind_parameters(state.circuit, state.space, point)
    dc = solve_dc(bound, state.model_cards)
    if not full:
        return replace(dc, compiled=None), None, ""
    plan = state.ac_plan
    ac = solve_ac(
        bound,
        state.model_cards,
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
        v0 = bound.device(tp.source).value("DC")
        stimulus = {tp.source: [(0.0, v0 + tp.step_v)]}
        try:
            tran = solve_transient(bound, state.model_cards, dc, stimulus, tp.t_stop, tp.dt)
        except SimulationError as exc:
            note = f"transient failed: {exc}"
    values = extract_metrics(ac, dc, tran, plan.output_net)
    return replace(dc, compiled=None), evaluate(values, state.specs), note


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
            return "\n".join(filter(None, [*payload["discrepancies"], payload["feedback"]]))
        if schema_id in ("specs_review", "advisor_review"):
            return "\n".join(filter(None, [payload["critique"], payload["feedback"]]))
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

    def _schema_warning(self, agent_name: str, exc: SchemaFailure, consequence: str) -> None:
        self._note(f"{agent_name}: {exc}; {consequence}")

    def _constrain(self, point: dict[str, float], actor: str) -> dict[str, float]:
        """Project a proposal into the feasible set of matching groups and bounds."""
        projected = self.feasible.project(point)
        changed = [n for n in projected if projected[n] != point.get(n)]
        if changed:
            self._note(f"{actor}: matching/bounds adjusted {', '.join(changed)}")
        return projected

    # ------------------------------------------------------------------
    # simulation tools

    def _entry_for(self, point: dict[str, float], source: str) -> HistoryEntry:
        history = self.state.sizing_history
        if history:
            last = history[-1]
            if last.point == point and last.dc is None and last.report is None:
                return last
        entry = HistoryEntry(point=dict(point), source=source)
        history.append(entry)
        return entry

    def _simulate(self, point: dict[str, float], full: bool, counter: str) -> HistoryEntry:
        tool = "full_sim" if full else "dc_sim"
        entry = self._entry_for(point, source="engine")
        self._trace(
            "tool_call", "engine", {"tool": tool, "source": entry.source, "point": dict(point)}
        )
        self._bump(counter)
        payload: dict = {"tool": tool, "source": entry.source, "point": dict(point)}
        try:
            dc, report, note = measure(self.state, point, full)
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
        except SimulationError as exc:
            entry.note = f"simulation failed: {exc}"
            payload["ok"] = False
            payload["error"] = str(exc)
        self._trace("sim_result", "engine", payload)
        return entry

    def _dc_sim(self, point: dict[str, float]) -> HistoryEntry:
        return self._simulate(point, full=False, counter="dc_sims")

    def _full_sim(self, point: dict[str, float]) -> HistoryEntry:
        return self._simulate(point, full=True, counter="full_sims_llm")

    # ------------------------------------------------------------------
    # phase 1: sequential analysis agents

    def run_phase1(self) -> None:
        st = self.state
        st.phase = 1
        try:
            st.circuit_explanation = self._ask("circuit_explainer")["explanation"]
        except SchemaFailure as exc:
            self._schema_warning("circuit_explainer", exc, "continuing without explanation")
            st.circuit_explanation = "(explanation unavailable)"
        if st.matching_groups:
            self._note("matching groups provided by configuration; matching finder skipped")
        else:
            try:
                st.matching_groups = list(self._ask("matching_finder")["groups"])
            except SchemaFailure as exc:
                self._schema_warning("matching_finder", exc, "continuing with empty matching")
                st.matching_groups = []
            self.feasible = FeasibleSet(st.space, st.matching_groups)
        try:
            st.dc_goals = dict(self._ask("dc_goal_setter")["goals"])
        except SchemaFailure as exc:
            self._schema_warning("dc_goal_setter", exc, "continuing without DC goals")
            st.dc_goals = {}
        try:
            proposal = self._ask("initial_designer")
            point = self._constrain(proposal["parameters"], "initial_designer")
        except SchemaFailure as exc:
            self._schema_warning("initial_designer", exc, "falling back to the space midpoint")
            point = self._constrain(st.space.midpoint(), "initial_designer")
        st.sizing_history.append(HistoryEntry(point=point, source="initial_designer"))

    # ------------------------------------------------------------------
    # phase 2: DC tuning loop

    def _dc_goals_met(self, entry: HistoryEntry | None) -> bool:
        if entry is None or entry.dc is None:
            return False
        regions = {dev: op["region"] for dev, op in entry.dc.transistor_ops.items()}
        return all(regions.get(dev) == goal for dev, goal in self.state.dc_goals.items())

    def _propose(self, agent_name: str, extra) -> None:
        """Sizer turn: on schema failure the current point is kept."""
        try:
            proposal = self._ask(agent_name, extra=extra)
            point = self._constrain(proposal["parameters"], agent_name)
        except SchemaFailure as exc:
            self._schema_warning(agent_name, exc, "keeping the current point")
            return
        self.state.sizing_history.append(HistoryEntry(point=point, source=agent_name))

    def run_phase2(self) -> None:
        st = self.state
        st.phase = 2
        last_sim: HistoryEntry | None = None
        for _cycle in range(self.caps.phase2_max_cycles):
            if self._dc_goals_met(last_sim):
                self._note("all DC operating-region goals met; leaving phase 2")
                return
            last_sim = self._dc_sim(st.current_point)
            try:
                review = self._ask("dc_reviewer")
            except SchemaFailure as exc:
                self._schema_warning("dc_reviewer", exc, "using an empty review")
                review = {"goals_met": False, "discrepancies": (), "feedback": ""}
            feedback = "\n".join(
                filter(
                    None,
                    [
                        *(f"- {d}" for d in review["discrepancies"]),
                        review["feedback"],
                    ],
                )
            )
            self._propose("dc_sizer", extra=(("DC reviewer feedback", feedback or "(none)"),))
        if self._dc_goals_met(last_sim):
            self._note("all DC operating-region goals met; leaving phase 2")
        else:
            self._note("phase 2 cycle cap reached; continuing with the current point")

    # ------------------------------------------------------------------
    # phase 3: reasoning-driven spec refinement loop

    def _best_fom(self) -> float:
        best = self.state.best_fom()
        return best if best is not None else 0.0

    def run_phase3(self) -> None:
        max_full_sims = self.caps.phase3_max_full_sims
        st = self.state
        st.phase = 3
        full_sims_here = 0
        next_tool = "full_sim"
        # dc_sim cycles spend no full-sim budget, so bound total cycles too
        for _cycle in range(2 * max_full_sims):
            if self._best_fom() >= 1.0:
                self._note("all hard targets met; leaving phase 3")
                return
            if full_sims_here >= max_full_sims:
                self._note("phase 3 full-simulation cap reached")
                return
            if next_tool == "full_sim":
                self._full_sim(st.current_point)
                full_sims_here += 1
            else:
                self._dc_sim(st.current_point)
            try:
                review = self._ask("specs_reviewer")
            except SchemaFailure as exc:
                self._schema_warning("specs_reviewer", exc, "using an empty review")
                review = {"critique": "", "feedback": "", "next_tool": "full_sim"}
            next_tool = review["next_tool"]
            feedback = "\n".join(filter(None, [review["critique"], review["feedback"]]))
            self._propose(
                "reasoning_sizer", extra=(("Specs reviewer feedback", feedback or "(none)"),)
            )
        if self._best_fom() >= 1.0:
            self._note("all hard targets met; leaving phase 3")
        else:
            self._note("phase 3 cycle cap reached")

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
        measured: dict[tuple, tuple] = {}

        def objective(point: dict[str, float]) -> float:
            dc, report, note = measure(st, point)
            measured[_point_key(point)] = (dc, report, note)
            return report.fom

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
                entry.dc, entry.report, note = measured[_point_key(ev.point)]
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
        for _cycle in range(caps.phase4_max_cycles):
            if self._best_fom() >= 1.0:
                self._note("all hard targets met; leaving phase 4")
                return
            if next_tool == "full_sim":
                self._full_sim(st.current_point)
            else:
                self._dc_sim(st.current_point)
            stagnating = detect_stagnation(st.scored_foms())
            signal = (
                f"Deterministic check over the last {STAGNATION_WINDOW} scored evaluations: "
                f"{'stagnating' if stagnating else 'still improving'} "
                f"(threshold {STAGNATION_MIN_IMPROVEMENT})."
            )
            try:
                review = self._ask("advisor_reviewer", extra=(("Stagnation signal", signal),))
            except SchemaFailure as exc:
                self._schema_warning("advisor_reviewer", exc, "using an empty review")
                review = {
                    "critique": "",
                    "feedback": "",
                    "stagnation": stagnating,
                    "advise_optimizer": False,
                    "next_tool": "full_sim",
                }
            next_tool = review["next_tool"]
            calls_left = caps.phase4_max_optimizer_calls - st.budgets.opt_calls
            advisor_section = "\n".join(
                filter(
                    None,
                    [
                        review["critique"],
                        review["feedback"],
                        f"Advisor stagnation verdict: {str(review['stagnation']).lower()}.",
                        f"Advisor recommends optimizer: "
                        f"{str(review['advise_optimizer']).lower()}.",
                        f"Optimizer calls remaining: {max(calls_left, 0)}; "
                        f"per-call budget cap: {caps.phase4_budget_cap}.",
                    ],
                )
            )
            try:
                decision = self._ask(
                    "equipped_sizer", extra=(("Advisor assessment", advisor_section),)
                )
            except SchemaFailure as exc:
                self._schema_warning("equipped_sizer", exc, "keeping the current point")
                continue
            if decision["action"] == "optimize":
                if calls_left <= 0:
                    self._note("optimizer call cap reached; keeping the current point")
                    continue
                budget = min(decision["optimizer_budget"], caps.phase4_budget_cap)
                if budget < decision["optimizer_budget"]:
                    self._note(
                        f"optimizer budget clamped from {decision['optimizer_budget']} "
                        f"to {budget}"
                    )
                self._run_optimizer(budget, decision["algorithm"])
            else:
                point = self._constrain(decision["parameters"], "equipped_sizer")
                st.sizing_history.append(HistoryEntry(point=point, source="equipped_sizer"))
        if self._best_fom() >= 1.0:
            self._note("all hard targets met; leaving phase 4")
        else:
            self._note("phase 4 cycle cap reached; returning best point so far")

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        st = self.state
        self.run_phase1()
        self.run_phase2()
        if self._best_fom() < 1.0:
            self.run_phase3()
        if self._best_fom() < 1.0:
            self.run_phase4()
        best = st.best_entry()
        if best is not None:
            best_point, best_fom = dict(best.point), best.fom
        else:
            best_point, best_fom = st.current_point, None
        status = "success" if best_fom is not None and best_fom >= 1.0 else "incomplete"
        return RunResult(
            status=status,
            best_point=best_point,
            best_fom=best_fom,
            state=st,
            accounting=st.budgets.as_dict(),
        )
