"""Per-layer tracing from outside the program.

Each layer of amsizer is wrapped at the names its callers bind (for
example ``amsizer.workflow.solve_dc``, which the workflow looks up on
every call), so no file under ``src/`` changes.  Every wrapped call
records one span: layer name, start, end and the index of the span that
was open when it started.  A layer's self time is its span minus the
part its child spans cover.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import statistics
import time
from contextlib import contextmanager

# layer -> the names its callers bind ("module:attribute[.attribute]")
PATCH_POINTS = {
    # one root span per `amsizer run` / `amsizer optimize` call
    "session": ("amsizer.cli:cmd_run", "amsizer.cli:cmd_optimize"),
    "config": ("amsizer.cli:load_config", "amsizer.cli:build_state", "amsizer.cli:build_backend"),
    "netlist.bind": ("amsizer.workflow:bind_parameters", "amsizer.cli:bind_parameters"),
    "simulator.dc": ("amsizer.workflow:solve_dc", "amsizer.cli:solve_dc"),
    "simulator.ac": ("amsizer.workflow:solve_ac", "amsizer.cli:solve_ac"),
    "simulator.tran": ("amsizer.workflow:solve_transient", "amsizer.cli:solve_transient"),
    "metrics": (
        "amsizer.workflow:extract_metrics", "amsizer.cli:extract_metrics",
        "amsizer.workflow:evaluate", "amsizer.cli:evaluate",
    ),
    "gp.fit": ("amsizer.optimizer:gp_fit",),
    "gp.predict": ("amsizer.optimizer:gp_predict",),
    "optimizer": ("amsizer.workflow:optimize", "amsizer.cli:optimize"),
    "optimizer.ei": ("amsizer.optimizer:expected_improvement",),
    "optimizer.de_step": ("amsizer.optimizer:de_step",),
    "llm": ("amsizer.llm:ScriptedBackend.complete",),
    "context": ("amsizer.workflow:assemble_context",),
    "schema": ("amsizer.workflow:enforce_schema",),
    "trace.record": ("amsizer.trace:TraceLog.record",),
    "trace.report": ("amsizer.cli:render_report",),
    "workflow.run": ("amsizer.workflow:Workflow.run",),
    "workflow.phase1": ("amsizer.workflow:Workflow.run_phase1",),
    "workflow.phase2": ("amsizer.workflow:Workflow.run_phase2",),
    "workflow.phase3": ("amsizer.workflow:Workflow.run_phase3",),
    "workflow.phase4": ("amsizer.workflow:Workflow.run_phase4",),
}
# wrapped around the objective each optimize() call receives
OBJECTIVE = "optimizer.objective"
LAYERS = (*PATCH_POINTS, OBJECTIVE)
WORKFLOW_SPANS = ("workflow.run", "workflow.phase1", "workflow.phase2",
                  "workflow.phase3", "workflow.phase4")

_SIM = {"session", "config", "netlist.bind", "simulator.dc", "simulator.ac", "metrics"}
_OPT = {"optimizer", OBJECTIVE}
_AGENT = {"llm", "context", "schema", "trace.record", "trace.report",
          "workflow.run", "workflow.phase1", "workflow.phase2", "workflow.phase3"}
# Layer-coverage guard: the layers each workload must call; every other
# layer must read zero calls.  A refactor that moves a call site away
# from the bound names above makes the traced run fail here instead of
# silently reporting zero.
MUST_HIT = {
    "agentic-two-stage": _SIM | _AGENT,
    "agentic-folded": _SIM | _AGENT | _OPT | {
        "workflow.phase4", "gp.fit", "gp.predict", "optimizer.ei"},
    "de-two-stage": _SIM | _OPT | {"optimizer.de_step"},
    "de-tran": _SIM | _OPT | {"optimizer.de_step", "simulator.tran"},
}

# Stress check: the per-session layer time each workload was chosen for,
# as a share of the untraced session time, must reach this floor.
STRESS = {
    "agentic-two-stage": (("llm.self_s", "context.self_s", "schema.self_s",
                           "trace.record.busy_s", "trace.report.busy_s",
                           "workflow.self_s", "config.busy_s", "session.self_s"), 0.30),
    "agentic-folded": (("optimizer.self_s", "gp.fit.busy_s", "gp.predict.busy_s"), 0.60),
    "de-two-stage": (("simulator.dc.busy_s", "simulator.ac.busy_s"), 0.80),
    "de-tran": (("simulator.tran.busy_s",), 0.85),
}


def _resolve(point: str):
    module_name, _, path = point.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder; single-threaded, like the runs it observes."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.failed: dict[str, int] = {}
        self.counts: dict[str, float] = {}  # work counted at layer boundaries
        self._stack: list[int] = []

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, layer: str, fn, observe=None, rewrite=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if rewrite is not None:
                args, kwargs = rewrite(args, kwargs)
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[layer] = self.failed.get(layer, 0) + 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        observers = {
            "simulator.dc": lambda a, r: self.add("simulator.dc.newton_iters", r.iterations),
            "simulator.tran": lambda a, r: self.add("simulator.tran.steps", len(r.times_s) - 1),
            "gp.predict": lambda a, r: self.add("gp.predict.points", len(r[0])),
            "context": lambda a, r: self.add("context.chars", len(r)),
            "trace.record": self._observe_record,
        }
        rewrites = {"optimizer": self._wrap_objective}
        saved = []
        try:
            for layer, points in PATCH_POINTS.items():
                for point in points:
                    owner, attr = _resolve(point)
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(
                        layer, original, observers.get(layer), rewrites.get(layer)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _observe_record(self, args, result) -> None:
        # TraceLog.record(self, phase, actor, kind, payload)
        if args[3] == "schema_retry":
            self.add("schema.retries")

    def _wrap_objective(self, args, kwargs):
        request, objective, *rest = args
        return (request, self.wrap(OBJECTIVE, objective), *rest), kwargs

    def summary(self, sessions: int, pauses=()) -> tuple[dict[str, float], dict[str, int]]:
        """(per-session layer metrics, call count per layer) over every span so far.

        `pauses` are sorted (start, end, ...) intervals to leave out of
        every span that contains them: the speed probe's kernel runs.
        """
        starts = [p[0] for p in pauses]
        paused = list(itertools.accumulate((p[1] - p[0] for p in pauses), initial=0.0))
        durations = []
        for _layer, start, end, _parent in self.spans:
            inside = paused[bisect.bisect_left(starts, end)] - paused[bisect.bisect_left(starts, start)]
            durations.append(end - start - inside)
        child_time = [0.0] * len(self.spans)
        for (_layer, _start, _end, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        samples: dict[str, list[float]] = {"simulator.dc": [], "simulator.ac": []}
        for (layer, *_), duration, children in zip(self.spans, durations, child_time):
            calls[layer] += 1
            busy[layer] += duration
            own[layer] += duration - children
            if layer in samples:
                samples[layer].append(duration)

        n = max(sessions, 1)
        counts = self.counts

        def per(value):
            return value / n

        def ratio(num, den):
            return num / den if den else 0.0

        def p50_ms(layer):
            return 1e3 * statistics.median(samples[layer]) if samples[layer] else 0.0

        m = {
            "session.self_s": per(own["session"]),
            "config.calls": per(calls["config"]),
            "config.busy_s": per(busy["config"]),
            "netlist.bind.calls": per(calls["netlist.bind"]),
            "netlist.bind.busy_s": per(busy["netlist.bind"]),
            "simulator.dc.calls": per(calls["simulator.dc"]),
            "simulator.dc.busy_s": per(busy["simulator.dc"]),
            "simulator.dc.ms.p50": p50_ms("simulator.dc"),
            "simulator.dc.newton_iters.mean": ratio(
                counts.get("simulator.dc.newton_iters", 0),
                calls["simulator.dc"] - self.failed.get("simulator.dc", 0)),
            "simulator.dc.failed": per(self.failed.get("simulator.dc", 0)),
            "simulator.ac.calls": per(calls["simulator.ac"]),
            "simulator.ac.busy_s": per(busy["simulator.ac"]),
            "simulator.ac.ms.p50": p50_ms("simulator.ac"),
            "simulator.tran.calls": per(calls["simulator.tran"]),
            "simulator.tran.busy_s": per(busy["simulator.tran"]),
            "simulator.tran.us_per_step": 1e6 * ratio(
                busy["simulator.tran"], counts.get("simulator.tran.steps", 0)),
            "simulator.tran.failed": per(self.failed.get("simulator.tran", 0)),
            "metrics.calls": per(calls["metrics"]),
            "metrics.busy_s": per(busy["metrics"]),
            "gp.fit.calls": per(calls["gp.fit"]),
            "gp.fit.busy_s": per(busy["gp.fit"]),
            "gp.predict.calls": per(calls["gp.predict"]),
            "gp.predict.points": per(counts.get("gp.predict.points", 0)),
            "gp.predict.points_per_call": ratio(
                counts.get("gp.predict.points", 0), calls["gp.predict"]),
            "gp.predict.busy_s": per(busy["gp.predict"]),
            "optimizer.calls": per(calls["optimizer"]),
            "optimizer.busy_s": per(busy["optimizer"]),
            "optimizer.objective.calls": per(calls[OBJECTIVE]),
            "optimizer.objective.busy_s": per(busy[OBJECTIVE]),
            "optimizer.self_s": per(busy["optimizer"] - busy[OBJECTIVE]
                                    - busy["gp.fit"] - busy["gp.predict"]),
            "optimizer.ei.calls": per(calls["optimizer.ei"]),
            "optimizer.de_step.calls": per(calls["optimizer.de_step"]),
            "optimizer.de_step.busy_s": per(busy["optimizer.de_step"]),
            "llm.calls": per(calls["llm"]),
            "llm.busy_s": per(busy["llm"]),
            "llm.self_s": per(own["llm"]),
            "context.calls": per(calls["context"]),
            "context.busy_s": per(busy["context"]),
            "context.self_s": per(own["context"]),
            "context.chars": per(counts.get("context.chars", 0)),
            "schema.calls": per(calls["schema"]),
            "schema.busy_s": per(busy["schema"]),
            "schema.self_s": per(own["schema"]),
            "schema.retries": per(counts.get("schema.retries", 0)),
            "trace.events": per(calls["trace.record"]),
            "trace.record.busy_s": per(busy["trace.record"]),
            "trace.report.busy_s": per(busy["trace.report"]),
            "workflow.phase1_s": per(busy["workflow.phase1"]),
            "workflow.phase2_s": per(busy["workflow.phase2"]),
            "workflow.phase3_s": per(busy["workflow.phase3"]),
            "workflow.phase4_s": per(busy["workflow.phase4"]),
            "workflow.self_s": per(sum(own[layer] for layer in WORKFLOW_SPANS)),
        }
        return m, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent in self.spans:
                fh.write(json.dumps([layer, start, end, parent]) + "\n")


def coverage_problems(workload: str, calls: dict[str, int]) -> list[str]:
    """Layers that read zero where the workload must reach them, and the reverse."""
    hit = MUST_HIT[workload]
    problems = [f"{layer} was never called" for layer in LAYERS
                if layer in hit and calls[layer] == 0]
    problems += [f"{layer} was called {calls[layer]} times but must not be"
                 for layer in LAYERS if layer not in hit and calls[layer] > 0]
    return problems


def stress_share(workload: str, layer_metrics: dict[str, float], session_s: float) -> tuple[float, float]:
    """(share of the untraced session time, required floor) for the stressed layers."""
    names, floor = STRESS[workload]
    return sum(layer_metrics[name] for name in names) / session_s, floor
