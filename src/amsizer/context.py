"""Deterministic rendering of WorkflowState into agent prompt context.

Sections appear in a fixed order (netlist and sizing problem, circuit
explanation, DC goals, latest simulation result, history tail) followed
by the agent's task instruction, so the same state always renders to
byte-identical text.

What stays fixed within a run is rendered once and kept in
`state.rendered`, together with the objects it was rendered from: the
netlist section until the matching groups (or circuit, space or specs)
change, the latest-result table until its entry or that entry's
results change, and each history row until its entry's results change.
A history entry's point is never mutated once the entry exists.
"""

from __future__ import annotations

from operator import is_

from .netlist import serialize_netlist
from .state import HistoryEntry, WorkflowState

SECTION_ORDER = ("netlist", "explanation", "dc_goals", "latest_result", "history")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _fmt_point(point: dict[str, float], names) -> str:
    return ", ".join(f"{n}={_fmt(point[n])}" for n in names if n in point)


def _cached(state: WorkflowState, key, sources: tuple, render) -> str:
    """state.rendered[key], rendered again unless it was made from the
    very objects in `sources`."""
    hit = state.rendered.get(key)
    if hit is not None and len(hit[0]) == len(sources) and all(map(is_, hit[0], sources)):
        return hit[1]
    text = render()
    state.rendered[key] = (sources, text)
    return text


def _render_netlist(state: WorkflowState) -> str:
    sources = (state.circuit, state.space, *state.specs, *state.matching_groups)
    return _cached(state, "netlist", sources, lambda: _netlist_text(state))


def _netlist_text(state: WorkflowState) -> str:
    lines = ["## Circuit netlist", "", serialize_netlist(state.circuit).rstrip(), ""]
    lines.append("## Sizing parameters")
    lines.append("")
    for e in state.space.entries:
        unit = f" {e.unit}" if e.unit else ""
        scale = ", log scale" if e.scale == "log" else ""
        lines.append(f"- {e.name}: {_fmt(e.lo)} to {_fmt(e.hi)}{unit}{scale}")
    if state.specs:
        lines.append("")
        lines.append("## Performance targets")
        lines.append("")
        for s in state.specs:
            hard = "hard" if s.hardness == "hard" else "soft objective"
            lines.append(f"- {s.metric} {s.direction} {_fmt(s.target)} ({hard})")
    if state.matching_groups:
        lines.append("")
        lines.append("## Matching constraints")
        lines.append("")
        for g in state.matching_groups:
            if g.kind == "equal":
                lines.append(f"- equal: {', '.join(g.members)}")
            else:
                ratio = ":".join(_fmt(r) for r in g.ratios)
                lines.append(f"- ratio {ratio}: {', '.join(g.members)}")
    return "\n".join(lines)


def _render_explanation(state: WorkflowState) -> str:
    body = state.circuit_explanation.strip() or "(not available)"
    return f"## Circuit explanation\n\n{body}"


def _render_dc_goals(state: WorkflowState) -> str:
    lines = ["## DC operating-region goals", ""]
    if state.dc_goals:
        for dev in sorted(state.dc_goals):
            lines.append(f"- {dev}: {state.dc_goals[dev]}")
    else:
        lines.append("(none set)")
    return "\n".join(lines)


def _latest_simulated(state: WorkflowState) -> HistoryEntry | None:
    for entry in reversed(state.sizing_history):
        if entry.dc is not None or entry.report is not None:
            return entry
    return None


def _render_latest_result(state: WorkflowState) -> str:
    entry = _latest_simulated(state)
    sources = (state.space, *state.specs, *_entry_sources(entry))
    return _cached(state, "latest_result", sources, lambda: _latest_result_text(state, entry))


def _entry_sources(entry: HistoryEntry | None) -> tuple:
    if entry is None:
        return (None,)
    return (entry, entry.point, entry.source, entry.dc, entry.report, entry.note)


def _latest_result_text(state: WorkflowState, entry: HistoryEntry | None) -> str:
    lines = ["## Latest simulation result", ""]
    if entry is None:
        lines.append("(no simulation results yet)")
        return "\n".join(lines)
    lines.append(f"Point ({entry.source}): {_fmt_point(entry.point, state.space.names)}")
    if entry.dc is not None:
        lines.append("")
        lines.append("Transistor operating points:")
        lines.append("| device | region | vgs_V | vds_V | id_A | gm_S | gds_S |")
        lines.append("|---|---|---|---|---|---|---|")
        for dev in sorted(entry.dc.transistor_ops):
            op = entry.dc.transistor_ops[dev]
            lines.append(
                f"| {dev} | {op['region']} | {_fmt(op['vgs_V'])} | {_fmt(op['vds_V'])} "
                f"| {_fmt(op['id_A'])} | {_fmt(op['gm_S'])} | {_fmt(op['gds_S'])} |"
            )
    if entry.report is not None:
        lines.append("")
        lines.append("Metrics:")
        lines.append("| metric | value | target | met |")
        lines.append("|---|---|---|---|")
        by_metric = {s.metric: s for s in state.specs}
        for name in sorted(entry.report.values):
            value = entry.report.values[name]
            spec = by_metric.get(name)
            target = f"{spec.direction} {_fmt(spec.target)}" if spec else "-"
            met = {True: "yes", False: "no"}[entry.report.satisfied[name]] if spec else "-"
            lines.append(f"| {name} | {_fmt(value)} | {target} | {met} |")
        lines.append(f"Figure of merit: {_fmt(entry.report.fom)}")
    if entry.note:
        lines.append(f"Note: {entry.note}")
    return "\n".join(lines)


def _render_history(state: WorkflowState) -> str:
    lines = [f"## Sizing history (newest {state.history_tail})", ""]
    tail = state.sizing_history[-state.history_tail:]
    if not tail:
        lines.append("(empty)")
        return "\n".join(lines)
    offset = len(state.sizing_history) - len(tail)
    for i, entry in enumerate(tail, start=offset + 1):
        sources = (state.space, *_entry_sources(entry))
        lines.append(f"{i}. " + _cached(state, ("history", i), sources,
                                        lambda: _history_row(state, entry)))
    return "\n".join(lines)


def _history_row(state: WorkflowState, entry: HistoryEntry) -> str:
    if entry.fom is not None:
        status = f"fom={_fmt(entry.fom)}"
    elif entry.dc is not None:
        regions = ",".join(
            f"{d}:{entry.dc.transistor_ops[d]['region']}"
            for d in sorted(entry.dc.transistor_ops)
        )
        status = f"dc regions {regions}" if regions else "dc only"
    else:
        status = "not simulated"
    if entry.note:
        status = f"{status} | {entry.note}"
    return f"[{entry.source}] {_fmt_point(entry.point, state.space.names)} -> {status}"


_RENDERERS = {
    "netlist": _render_netlist,
    "explanation": _render_explanation,
    "dc_goals": _render_dc_goals,
    "latest_result": _render_latest_result,
    "history": _render_history,
}


def assemble_context(state: WorkflowState, spec, extra=()) -> str:
    """Render the sections named by spec.context_keys plus spec.task.

    `extra` is a sequence of (title, body) sections — per-turn dynamic
    context such as reviewer feedback — inserted before the task.
    """
    unknown = [k for k in spec.context_keys if k not in _RENDERERS]
    if unknown:
        raise KeyError(f"unknown context keys {unknown} for agent {spec.name!r}")
    parts = []
    for key in SECTION_ORDER:
        if key in spec.context_keys:
            parts.append(_RENDERERS[key](state))
    for title, body in extra:
        parts.append(f"## {title}\n\n{body}")
    parts.append(f"## Task\n\n{spec.task}")
    return "\n\n".join(parts) + "\n"
