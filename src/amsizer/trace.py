"""Append-only explainability trace and report rendering.

Every agent message, rationale, tool call, simulation result, budget
change, and warning is recorded as one event.  Events stream to a
newline-delimited JSON file (one object per line, flushed per event) so
a crashed run still leaves a readable prefix.  Rationale texts are
stored verbatim — the narrative report quotes them, never paraphrases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .state import BudgetLedger

# json.dumps(doc, sort_keys=True) builds this encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True)

EVENT_KINDS = (
    "agent_input",
    "agent_output",
    "rationale",
    "tool_call",
    "sim_result",
    "schema_retry",
    "budget",
    "warning",
)

PHASE_TITLES = {
    1: "Topology analysis and initial sizing",
    2: "DC operating-point tuning",
    3: "Specification refinement",
    4: "Advised refinement and optimization",
}


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    timestamp: float
    phase: int
    actor: str  # agent name | "optimizer" | "engine"
    kind: str
    payload: dict


class TraceLog:
    """Single-writer event log; record() is the only mutation point.

    With no clock the timestamp is a virtual counter (0, 1, 2, ...), so
    scripted runs produce byte-identical trace files; live runs pass
    time.time.  OSError from the sink propagates to the caller.
    """

    def __init__(self, path: str | None = None, clock=None):
        self.events: list[TraceEvent] = []
        self._clock = clock
        self._ticks = 0
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def _now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        t = float(self._ticks)
        self._ticks += 1
        return t

    def record(self, phase: int, actor: str, kind: str, payload: dict) -> int:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        doc = {
            "seq": len(self.events) + 1,
            "timestamp": self._now(),
            "phase": phase,
            "actor": actor,
            "kind": kind,
            "payload": payload,
        }
        event = TraceEvent(**doc)
        self.events.append(event)
        if self._fh is not None:
            # payloads hold JSON types only, so they serialise as given
            self._fh.write(_ENCODER.encode(doc) + "\n")
            self._fh.flush()
        return event.seq

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _event(doc) -> TraceEvent:
    """The event of one decoded record, whose payload the report can render."""
    event = TraceEvent(**doc)
    if not isinstance(event.payload, dict):
        raise ValueError(f"payload must be an object, got {json.dumps(event.payload)}")
    if event.kind == "sim_result":  # the fields the report reads as objects
        for name in ("point", "regions", "metrics"):
            value = event.payload.get(name)
            if value is not None and not isinstance(value, dict):
                raise ValueError(f"sim_result {name!r} must be an object, got {json.dumps(value)}")
    return event


def load_trace(path: str) -> list[TraceEvent]:
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(_event(json.loads(line)))
            except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise ValueError(f"{path}:{line_no}: bad trace record: {exc}") from exc
    return events


def summarize_accounting(events) -> dict[str, int]:
    """Fold budget events into the accounting row (all zeros when empty)."""
    ledger = BudgetLedger()
    for e in events:
        if e.kind == "budget":
            try:
                ledger.add(e.payload["counter"], int(e.payload["delta"]))
            except KeyError as exc:
                raise ValueError(f"budget event {e.seq} has no {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"budget event {e.seq}: {exc}") from exc
    return ledger.as_dict()


def fom_series(events) -> list[tuple[int, float]]:
    """(evaluation index, fom) for every scored simulation, in order."""
    series = []
    for e in events:
        if e.kind == "sim_result" and e.payload.get("fom") is not None:
            series.append((len(series) + 1, float(e.payload["fom"])))
    return series


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _diff_lines(point: dict, previous: dict | None) -> list[str]:
    lines = []
    if previous is None:
        for name in sorted(point):
            lines.append(f"  - {name} = {_fmt(point[name])}")
        return lines
    for name in sorted(point):
        if name not in previous:
            lines.append(f"  - {name} = {_fmt(point[name])} (new)")
        elif point[name] != previous[name]:
            lines.append(f"  - {name}: {_fmt(previous[name])} -> {_fmt(point[name])}")
    if not lines:
        lines.append("  - (unchanged)")
    return lines


def _render_sim_result(e: TraceEvent, step: int, previous_point: dict | None) -> list[str]:
    p = e.payload
    lines = [f"### Step {step}: {p.get('tool', 'simulation')} ({p.get('source', e.actor)})", ""]
    point = p.get("point")
    if point:
        lines.append("Parameters:" if previous_point is None else "Parameter changes:")
        lines.extend(_diff_lines(point, previous_point))
        lines.append("")
    if not p.get("ok", True):
        lines.append(f"Simulation failed: {p.get('error', 'unknown error')}")
        lines.append("")
        return lines
    regions = p.get("regions")
    if regions:
        joined = ", ".join(f"{d}: {regions[d]}" for d in sorted(regions))
        lines.append(f"Operating regions: {joined}")
    metrics = p.get("metrics")
    if metrics:
        joined = ", ".join(f"{k} = {_fmt(metrics[k])}" for k in sorted(metrics))
        lines.append(f"Metrics: {joined}")
    if p.get("fom") is not None:
        lines.append(f"Figure of merit: {_fmt(p['fom'])}")
    lines.append("")
    return lines


def render_report(events) -> str:
    """Deterministic narrative document: per-phase sections, each sizing
    step with its verbatim rationale, parameter diff, metrics and fom,
    then the accounting table."""
    out = ["# Sizing run report", ""]
    step = 0
    previous_point = None
    for phase in (1, 2, 3, 4):
        out.append(f"## Phase {phase}: {PHASE_TITLES[phase]}")
        out.append("")
        phase_events = [e for e in events if e.phase == phase]
        body_start = len(out)
        for e in phase_events:
            if e.kind == "rationale":
                text = e.payload.get("text", "")
                if text:
                    out.append(f"**{e.actor}:** {text}")
                    out.append("")
            elif e.kind == "sim_result":
                step += 1
                out.extend(_render_sim_result(e, step, previous_point))
                if e.payload.get("point"):
                    previous_point = e.payload["point"]
            elif e.kind == "tool_call" and e.payload.get("tool") == "optimizer":
                algo = e.payload.get("algorithm", "?")
                budget = e.payload.get("budget", "?")
                out.append(f"Optimizer run requested: {algo}, budget {budget}.")
                out.append("")
            elif e.kind == "schema_retry":
                out.append(
                    f"Schema retry for {e.actor} "
                    f"(attempt {e.payload.get('attempt', '?')}): {e.payload.get('violation', '')}"
                )
                out.append("")
            elif e.kind == "warning":
                out.append(f"Warning: {e.payload.get('message', '')}")
                out.append("")
        if len(out) == body_start:
            out.append("(no events)")
            out.append("")
    acc = summarize_accounting(events)
    out.append("## Accounting")
    out.append("")
    out.append(
        "| LLM calls | Optimizer calls | DC sims | LLM full sims "
        "| Optimizer full sims | Total full sims |"
    )
    out.append("|---|---|---|---|---|---|")
    out.append(
        f"| {acc['llm_calls']} | {acc['opt_calls']} | {acc['dc_sims']} "
        f"| {acc['full_sims_llm']} | {acc['full_sims_opt']} | {acc['full_sims_total']} |"
    )
    out.append("")
    return "\n".join(out)
