"""Command-line entry points.

    amsizer run <config.yaml>          four-phase agentic sizing run
    amsizer simulate <netlist> ...     one-off DC / AC / transient analysis
    amsizer optimize <config.yaml> ... optimizer-only baseline (no agents)
    amsizer report <trace.jsonl>       re-render the report from a trace

Exit codes: 0 = done (run: every hard target met), 2 = run finished with
targets unmet, 1 = any error (bad config, bad netlist, engine failure).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .config import ConfigError, build_backend, build_state, load_config
from .llm import LlmError
# bind_parameters and evaluate go unused here but stay: profilers patch the pipeline at these names
from .metrics import evaluate, extract_metrics
from .mosfet import DEFAULT_MODEL_CARDS
from .netlist import (
    BindingError,
    DeviceKind,
    NetlistError,
    bind_parameters,
    parse_netlist,
    parse_value,
)
from .optimizer import OptimizerRequest, optimize
from .simulator import SimulationError, Topology, solve_ac, solve_dc, solve_transient
from .trace import TraceLog, fom_series, load_trace, render_report
from .workflow import Workflow, WorkflowError, measure

OP_COLUMNS = ("region", "vgs_V", "vds_V", "id_A", "gm_S", "gds_S")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# --- run ---------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    state = build_state(cfg)
    backend = build_backend(cfg)
    out_dir = args.output_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.jsonl")

    with TraceLog(path=trace_path) as trace:
        result = Workflow(state, backend, trace, caps=cfg.caps, seed=cfg.seed).run()

    report_path = os.path.join(out_dir, "report.md")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(render_report(trace.events))

    best_path = os.path.join(out_dir, "best_point.json")
    with open(best_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "status": result.status,
                "best_fom": result.best_fom,
                "best_point": result.best_point,
                "accounting": result.accounting,
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")

    series_path = os.path.join(out_dir, "fom_series.csv")
    with open(series_path, "w", encoding="utf-8") as fh:
        fh.write("evaluation,fom\n")
        for i, fom in fom_series(trace.events):
            fh.write(f"{i},{_fmt(fom)}\n")

    print(f"status: {result.status}")
    if result.best_fom is not None:
        print(f"best fom: {_fmt(result.best_fom)}")
    for key, value in result.accounting.items():
        print(f"{key}: {value}")
    for path in (trace_path, report_path, best_path, series_path):
        print(f"wrote {path}")
    return 0 if result.status == "success" else 2


# --- simulate ----------------------------------------------------------------


def _si_number(token: str) -> float:
    """argparse type: a number with an optional SI suffix (`8u`, `3p`, `1meg`)."""
    try:
        value = parse_value(token)
    except ValueError:
        value = None
    if not isinstance(value, float):
        raise argparse.ArgumentTypeError(f"expected a number, got {token!r}")
    return value


def _parse_param_args(pairs: list[str]) -> dict[str, float]:
    point = {}
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        if not eq or not name:
            raise BindingError(f"--param needs NAME=VALUE, got {pair!r}")
        try:
            point[name] = _si_number(raw)
        except argparse.ArgumentTypeError as exc:
            raise BindingError(f"--param {name}: {exc}") from exc
    return point


def _print_op(dc) -> None:
    print("node voltages (V):")
    for net in sorted(dc.node_voltages):
        print(f"  {net:<12}{_fmt(dc.node_voltages[net])}")
    if dc.branch_currents:
        print("source branch currents (A):")
        for src in sorted(dc.branch_currents):
            print(f"  {src:<12}{_fmt(dc.branch_currents[src])}")
    if dc.transistor_ops:
        header = "device      " + "".join(f"{c:<14}" for c in OP_COLUMNS)
        print("transistor operating points:")
        print(f"  {header.rstrip()}")
        for dev in sorted(dc.transistor_ops):
            op = dc.transistor_ops[dev]
            cells = "".join(
                f"{op[c] if c == 'region' else _fmt(op[c]):<14}" for c in OP_COLUMNS
            )
            print(f"  {dev:<12}{cells.rstrip()}")
    print(f"source power: {_fmt(sum(dc.source_power_w.values()))} W")


def cmd_simulate(args) -> int:
    with open(args.netlist, encoding="utf-8") as fh:
        circuit = parse_netlist(fh.read())
    point = _parse_param_args(args.param)
    unbound = [n for n in circuit.params if n not in point]
    if unbound:
        raise BindingError(
            f"unbound placeholder(s): {', '.join(unbound)}; use --param NAME=VALUE"
        )
    system = Topology(circuit, DEFAULT_MODEL_CARDS).bind(point)
    dc = solve_dc(system)

    if args.ac:
        for flag in ("input", "output"):
            if getattr(args, flag) is None:
                raise BindingError(f"--ac requires --{flag}")
        ac = solve_ac(
            system, dc,
            args.input, args.output, args.f_lo, args.f_hi, args.pts_per_decade,
        )
        mag_db = 20.0 * np.log10(np.maximum(np.abs(ac.transfer), 1e-300))
        phase_deg = np.degrees(np.unwrap(np.angle(ac.transfer)))
        print("freq_hz,mag_db,phase_deg")
        for f, m, p in zip(ac.freqs_hz, mag_db, phase_deg):
            print(f"{_fmt(f)},{_fmt(m)},{_fmt(p)}")
        values = extract_metrics(ac, dc)
        summary = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(values.items()))
        print(f"# {summary}")
        return 0

    if args.tran:
        for flag in ("input", "output", "step_v", "t_stop", "dt"):
            if getattr(args, flag) is None:
                raise BindingError(f"--tran requires --{flag.replace('_', '-')}")
        source = system.topology.devices.get(args.input)
        if source is None or source.kind not in (DeviceKind.VSOURCE, DeviceKind.ISOURCE):
            raise BindingError(f"--input {args.input!r} is not an independent source")
        v0 = system.value(args.input, "DC")
        stimulus = {args.input: [(0.0, v0 + args.step_v)]}
        tran = solve_transient(system, dc, stimulus, args.t_stop, args.dt)
        if args.output not in tran.node_voltages:
            raise BindingError(f"no net named {args.output!r}")
        print(f"t_s,v_{args.output}")
        for t, v in zip(tran.times_s, tran.node_voltages[args.output]):
            print(f"{_fmt(t)},{_fmt(v)}")
        return 0

    _print_op(dc)
    return 0


# --- optimize ----------------------------------------------------------------


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    state = build_state(cfg)

    def objective(point: dict[str, float]) -> float:
        _dc, report, note = measure(state, point)
        if note:  # the baseline fails a point whose transient failed
            raise SimulationError(note)
        return report.fom

    try:
        request = OptimizerRequest(
            space=cfg.space,
            matching=cfg.matching,
            budget=args.budget,
            algorithm=args.algo,
            seed=cfg.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = optimize(request, objective)
    errors = sum(1 for ev in result.evaluations if ev.error is not None)
    print(json.dumps(
        {
            "algorithm": args.algo,
            "best_fom": result.best_fom,
            "best_point": result.best_point,
            "budget_used": result.budget_used,
            "failed_evaluations": errors,
        },
        indent=2, sort_keys=True,
    ))
    return 0


# --- report ------------------------------------------------------------------


def cmd_report(args) -> int:
    events = load_trace(args.trace)
    print(render_report(events), end="")
    return 0


# --- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `amsizer` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="amsizer",
        description="Agentic analog-circuit sizing: simulate, optimize, orchestrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a full four-phase sizing run")
    p_run.add_argument("config", help="run-configuration YAML file")
    p_run.add_argument("--output-dir", dest="output_dir", default=None,
                       help="override the config's output directory")

    p_sim = sub.add_parser("simulate", help="simulate one netlist once")
    p_sim.add_argument("netlist", help="netlist file")
    p_sim.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                       help="bind a {placeholder}; SI suffixes allowed (repeatable)")
    mode = p_sim.add_mutually_exclusive_group()
    mode.add_argument("--op", action="store_true", help="DC operating point (default)")
    mode.add_argument("--ac", action="store_true", help="AC sweep as CSV")
    mode.add_argument("--tran", action="store_true", help="step transient as CSV")
    p_sim.add_argument("--input", help="stimulus voltage source (AC/transient)")
    p_sim.add_argument("--output", help="observed net (AC/transient)")
    p_sim.add_argument("--f-lo", type=_si_number, default=1.0, dest="f_lo")
    p_sim.add_argument("--f-hi", type=_si_number, default=1e9, dest="f_hi")
    p_sim.add_argument("--pts-per-decade", type=int, default=20, dest="pts_per_decade")
    p_sim.add_argument("--step-v", type=_si_number, dest="step_v", help="transient step height")
    p_sim.add_argument("--t-stop", type=_si_number, dest="t_stop", help="transient stop time")
    p_sim.add_argument("--dt", type=_si_number, dest="dt", help="transient time step")

    p_opt = sub.add_parser("optimize", help="optimizer-only baseline run")
    p_opt.add_argument("config", help="run-configuration YAML file")
    p_opt.add_argument("--algo", required=True, choices=("bo", "de"))
    p_opt.add_argument("--budget", required=True, type=int, help="simulation budget")

    p_rep = sub.add_parser("report", help="render a report from a trace file")
    p_rep.add_argument("trace", help="trace.jsonl produced by `run`")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a cmd_* function patched after the first call runs
    command = {
        "run": cmd_run, "simulate": cmd_simulate, "optimize": cmd_optimize, "report": cmd_report,
    }[args.command]
    try:
        return command(args)
    except (ConfigError, NetlistError, BindingError, SimulationError,
            LlmError, WorkflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
