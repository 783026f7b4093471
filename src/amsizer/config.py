"""Run configuration: one YAML file describes one sizing run.

The file names the netlist, the sizing parameters and their ranges, the
performance targets, the analyses to run, the chat backend, and the
phase budgets.  Everything is validated here, before any agent runs;
every diagnostic names the offending field.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import yaml

from .llm import HttpBackend, LlmError, ScriptedBackend, load_scenario, load_yaml
from .metrics import Spec, validate_specs
from .mosfet import DEFAULT_MODEL_CARDS, MosModelCard
from .netlist import (
    _POSITIVE_SLOTS,
    Circuit,
    DeviceKind,
    MatchingGroup,
    NetlistError,
    Param,
    ParameterSpace,
    SpaceEntry,
    parse_netlist,
    validate_matching_groups,
)
from .state import AcPlan, BudgetLedger, TranPlan, WorkflowState
from .workflow import PhaseCaps

__all__ = ["ConfigError", "BackendConfig", "RunConfig", "load_config", "build_state", "build_backend"]


class ConfigError(Exception):
    """Invalid run configuration; the message names the field."""


@dataclass(frozen=True)
class BackendConfig:
    kind: str  # "scripted" | "http"
    scenario_path: str = ""
    endpoint: str = ""
    api_key_env: str = ""
    model_id: str = ""
    timeout_s: float = 120.0


@dataclass
class RunConfig:
    netlist_path: str
    circuit: Circuit
    space: ParameterSpace
    specs: tuple[Spec, ...]
    ac_plan: AcPlan
    backend: BackendConfig
    tran_plan: TranPlan | None = None
    matching: tuple[MatchingGroup, ...] = ()
    model_cards: dict[str, MosModelCard] = field(default_factory=lambda: dict(DEFAULT_MODEL_CARDS))
    caps: PhaseCaps = field(default_factory=PhaseCaps)
    seed: int = 0
    history_tail: int = 10
    output_dir: str = "out"


# --- typed field extraction -------------------------------------------------


def _fail(path: str, why: str) -> ConfigError:
    return ConfigError(f"{path}: {why}")


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _sequence(value, path: str) -> list:
    if not isinstance(value, list):
        raise _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _str(raw: dict, key: str, path: str, default: str | None = None) -> str:
    if key not in raw:
        if default is not None:
            return default
        raise _fail(f"{path}.{key}", "required field is missing")
    value = raw[key]
    if not isinstance(value, str) or not value.strip():
        raise _fail(f"{path}.{key}", "expected a non-empty string")
    return value.strip()


def _num(raw: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in raw:
        if default is not None:
            return default
        raise _fail(f"{path}.{key}", "required field is missing")
    value = raw[key]
    if isinstance(value, str):
        # YAML 1.1 reads "1e-6" (no dot) as a string; accept it anyway
        try:
            value = float(value)
        except ValueError:
            raise _fail(f"{path}.{key}", f"expected a number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise _fail(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return value


def _int(raw: dict, key: str, path: str, default: int | None = None) -> int:
    if key not in raw:
        if default is not None:
            return default
        raise _fail(f"{path}.{key}", "required field is missing")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    return value


def _reject_unknown(raw: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise _fail(path, f"unknown field(s) {', '.join(unknown)}")


# --- section parsers --------------------------------------------------------


def _parse_space(raw) -> ParameterSpace:
    entries = []
    for i, item in enumerate(_sequence(raw, "parameters")):
        path = f"parameters[{i}]"
        item = _mapping(item, path)
        _reject_unknown(item, {"name", "lo", "hi", "unit", "scale"}, path)
        entries.append(SpaceEntry(
            name=_str(item, "name", path),
            lo=_num(item, "lo", path),
            hi=_num(item, "hi", path),
            unit=_str(item, "unit", path, default=""),
            scale=_str(item, "scale", path, default="linear"),
        ))
    try:
        return ParameterSpace(entries=tuple(entries))
    except ValueError as exc:
        raise _fail("parameters", str(exc)) from exc


def _parse_specs(raw) -> tuple[Spec, ...]:
    specs = []
    for i, item in enumerate(_sequence(raw, "specs")):
        path = f"specs[{i}]"
        item = _mapping(item, path)
        _reject_unknown(item, {"metric", "direction", "target", "hardness"}, path)
        try:
            specs.append(Spec(
                metric=_str(item, "metric", path),
                direction=_str(item, "direction", path),
                target=_num(item, "target", path),
                hardness=_str(item, "hardness", path, default="hard"),
            ))
        except ValueError as exc:
            raise _fail(path, str(exc)) from exc
    if not specs:
        raise _fail("specs", "at least one performance target is required")
    try:
        validate_specs(specs)
    except ValueError as exc:
        raise _fail("specs", str(exc)) from exc
    return tuple(specs)


def _parse_analysis(raw) -> tuple[AcPlan, TranPlan | None]:
    raw = _mapping(raw, "analysis")
    _reject_unknown(raw, {"ac", "tran"}, "analysis")
    if "ac" not in raw:
        raise _fail("analysis.ac", "required field is missing")
    ac = _mapping(raw["ac"], "analysis.ac")
    _reject_unknown(ac, {"input_source", "output_net", "f_lo", "f_hi", "pts_per_decade"}, "analysis.ac")
    ac_plan = AcPlan(
        input_source=_str(ac, "input_source", "analysis.ac"),
        output_net=_str(ac, "output_net", "analysis.ac"),
        f_lo=_num(ac, "f_lo", "analysis.ac", default=1.0),
        f_hi=_num(ac, "f_hi", "analysis.ac", default=1e9),
        pts_per_decade=_int(ac, "pts_per_decade", "analysis.ac", default=20),
    )
    if not (0 < ac_plan.f_lo < ac_plan.f_hi):
        raise _fail("analysis.ac", f"need 0 < f_lo < f_hi, got {ac_plan.f_lo} and {ac_plan.f_hi}")
    if ac_plan.pts_per_decade < 1:
        raise _fail("analysis.ac.pts_per_decade", "must be >= 1")
    tran_plan = None
    if "tran" in raw:
        tr = _mapping(raw["tran"], "analysis.tran")
        _reject_unknown(tr, {"source", "step_v", "t_stop", "dt"}, "analysis.tran")
        tran_plan = TranPlan(
            source=_str(tr, "source", "analysis.tran"),
            step_v=_num(tr, "step_v", "analysis.tran"),
            t_stop=_num(tr, "t_stop", "analysis.tran"),
            dt=_num(tr, "dt", "analysis.tran"),
        )
        if not (0 < tran_plan.dt < tran_plan.t_stop):
            raise _fail("analysis.tran", f"need 0 < dt < t_stop, got {tran_plan.dt} and {tran_plan.t_stop}")
    return ac_plan, tran_plan


def _parse_matching(raw, space: ParameterSpace) -> tuple[MatchingGroup, ...]:
    groups = []
    for i, item in enumerate(_sequence(raw, "matching")):
        path = f"matching[{i}]"
        item = _mapping(item, path)
        _reject_unknown(item, {"kind", "members", "ratios", "rationale"}, path)
        members = _sequence(item.get("members", []), f"{path}.members")
        ratios = _sequence(item.get("ratios", []), f"{path}.ratios") if "ratios" in item else []
        try:
            groups.append(MatchingGroup(
                kind=_str(item, "kind", path),
                members=tuple(str(m) for m in members),
                ratios=tuple(float(r) for r in ratios),
                rationale=_str(item, "rationale", path, default=""),
            ))
        except ValueError as exc:
            raise _fail(path, str(exc)) from exc
    problems = validate_matching_groups(groups, space)
    if problems:
        raise _fail("matching", "; ".join(problems))
    return tuple(groups)


def _parse_model_cards(raw) -> dict[str, MosModelCard]:
    cards = dict(DEFAULT_MODEL_CARDS)
    for name, item in _mapping(raw, "model_cards").items():
        path = f"model_cards.{name}"
        item = _mapping(item, path)
        _reject_unknown(item, {"kind", "vth", "kprime", "lam", "cox_area"}, path)
        kind = _str(item, "kind", path, default=name if name in ("NMOS", "PMOS") else "")
        if not kind:
            raise _fail(f"{path}.kind", "required field is missing (cannot infer from name)")
        defaults = DEFAULT_MODEL_CARDS.get(kind)
        try:
            cards[name] = MosModelCard(
                kind=kind,
                vth=_num(item, "vth", path, default=defaults.vth if defaults else None),
                kprime=_num(item, "kprime", path, default=defaults.kprime if defaults else None),
                lam=_num(item, "lam", path, default=defaults.lam if defaults else None),
                cox_area=_num(item, "cox_area", path, default=defaults.cox_area if defaults else None),
            )
        except ValueError as exc:
            raise _fail(path, str(exc)) from exc
    return cards


def _parse_backend(raw, base_dir: str) -> BackendConfig:
    raw = _mapping(raw, "backend")
    kind = _str(raw, "kind", "backend")
    if kind == "scripted":
        _reject_unknown(raw, {"kind", "scenario"}, "backend")
        scenario = _resolve(base_dir, _str(raw, "scenario", "backend"))
        if not os.path.isfile(scenario):
            raise _fail("backend.scenario", f"file not found: {scenario}")
        return BackendConfig(kind="scripted", scenario_path=scenario)
    if kind == "http":
        _reject_unknown(raw, {"kind", "endpoint", "api_key_env", "model", "timeout_s"}, "backend")
        return BackendConfig(
            kind="http",
            endpoint=_str(raw, "endpoint", "backend"),
            api_key_env=_str(raw, "api_key_env", "backend", default=""),
            model_id=_str(raw, "model", "backend", default=""),
            timeout_s=_num(raw, "timeout_s", "backend", default=120.0),
        )
    raise _fail("backend.kind", f"expected 'scripted' or 'http', got {kind!r}")


def _parse_caps(raw) -> PhaseCaps:
    raw = _mapping(raw, "caps")
    fields = {
        "phase2_max_cycles", "phase3_max_full_sims", "phase4_max_cycles",
        "phase4_max_optimizer_calls", "phase4_budget_cap",
    }
    _reject_unknown(raw, fields, "caps")
    defaults = PhaseCaps()
    try:
        return PhaseCaps(**{
            name: _int(raw, name, "caps", default=getattr(defaults, name))
            for name in sorted(fields)
        })
    except ValueError as exc:
        raise _fail("caps", str(exc)) from exc


def _resolve(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base_dir, path))


# --- top level ---------------------------------------------------------------

_TOP_FIELDS = {
    "netlist", "parameters", "specs", "analysis", "matching", "model_cards",
    "backend", "caps", "seed", "history_tail", "output_dir",
}


def load_config(path: str) -> RunConfig:
    """Read and fully validate a run-configuration YAML file.

    Relative paths inside the file (netlist, scripted scenario) resolve
    against the file's own directory.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = load_yaml(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    raw = _mapping(raw, "config")
    _reject_unknown(raw, _TOP_FIELDS, "config")
    base_dir = os.path.dirname(os.path.abspath(path))

    netlist_path = _resolve(base_dir, _str(raw, "netlist", "config"))
    if not os.path.isfile(netlist_path):
        raise _fail("netlist", f"file not found: {netlist_path}")
    with open(netlist_path, encoding="utf-8") as fh:
        netlist_text = fh.read()
    try:
        circuit = parse_netlist(netlist_text)
    except NetlistError as exc:
        raise _fail("netlist", str(exc)) from exc

    if "parameters" not in raw:
        raise _fail("parameters", "required field is missing")
    space = _parse_space(raw["parameters"])
    missing = sorted(set(circuit.params) - set(space.names))
    if missing:
        raise _fail("parameters", f"netlist placeholder(s) without a range: {', '.join(missing)}")
    unused = sorted(set(space.names) - set(circuit.params))
    if unused:
        raise _fail("parameters", f"no netlist placeholder named: {', '.join(unused)}")
    for d in circuit.devices:
        for slot, v in d.values.items():
            if slot in _POSITIVE_SLOTS and isinstance(v, Param) and space.entry(v.name).lo <= 0:
                raise _fail("parameters", (
                    f"parameter {v.name!r} sets {slot} of device {d.id}, which must be "
                    f"strictly positive, but its range starts at lo = {space.entry(v.name).lo:g}"
                ))

    if "specs" not in raw:
        raise _fail("specs", "required field is missing")
    specs = _parse_specs(raw["specs"])

    if "analysis" not in raw:
        raise _fail("analysis", "required field is missing")
    ac_plan, tran_plan = _parse_analysis(raw["analysis"])
    sources = {d.id for d in circuit.devices if d.kind is DeviceKind.VSOURCE}
    if ac_plan.input_source not in sources:
        raise _fail("analysis.ac.input_source", f"no voltage source named {ac_plan.input_source!r}")
    if ac_plan.output_net not in circuit.nets:
        raise _fail("analysis.ac.output_net", f"no net named {ac_plan.output_net!r}")
    if tran_plan is not None and tran_plan.source not in sources:
        raise _fail("analysis.tran.source", f"no voltage source named {tran_plan.source!r}")

    matching = _parse_matching(raw["matching"], space) if "matching" in raw else ()
    model_cards = _parse_model_cards(raw["model_cards"]) if "model_cards" in raw else dict(DEFAULT_MODEL_CARDS)
    missing_cards = sorted({m.model for m in circuit.mosfets()} - set(model_cards))
    if missing_cards:
        raise _fail("model_cards", f"netlist uses undefined model(s): {', '.join(missing_cards)}")

    if "backend" not in raw:
        raise _fail("backend", "required field is missing")
    backend = _parse_backend(raw["backend"], base_dir)
    caps = _parse_caps(raw["caps"]) if "caps" in raw else PhaseCaps()

    seed = _int(raw, "seed", "config", default=0)
    history_tail = _int(raw, "history_tail", "config", default=10)
    if history_tail < 1:
        raise _fail("history_tail", "must be >= 1")
    output_dir = _str(raw, "output_dir", "config", default="out")

    return RunConfig(
        netlist_path=netlist_path,
        circuit=circuit,
        space=space,
        specs=specs,
        ac_plan=ac_plan,
        tran_plan=tran_plan,
        matching=matching,
        model_cards=model_cards,
        backend=backend,
        caps=caps,
        seed=seed,
        history_tail=history_tail,
        output_dir=_resolve(base_dir, output_dir),
    )


def build_state(config: RunConfig) -> WorkflowState:
    """Construct the initial workflow state from a validated config."""
    return WorkflowState(
        circuit=config.circuit,
        space=config.space,
        specs=list(config.specs),
        model_cards=dict(config.model_cards),
        ac_plan=config.ac_plan,
        tran_plan=config.tran_plan,
        matching_groups=list(config.matching),
        budgets=BudgetLedger(),
        history_tail=config.history_tail,
    )


def build_backend(config: RunConfig) -> ScriptedBackend | HttpBackend:
    """Instantiate the chat backend named by the config."""
    if config.backend.kind == "scripted":
        try:
            return load_scenario(config.backend.scenario_path)
        except (OSError, LlmError) as exc:
            raise ConfigError(f"backend.scenario: {exc}") from exc
    api_key = None
    if config.backend.api_key_env:
        api_key = os.environ.get(config.backend.api_key_env)
        if not api_key:
            raise ConfigError(
                f"backend.api_key_env: environment variable "
                f"{config.backend.api_key_env!r} is not set"
            )
    return HttpBackend(
        endpoint=config.backend.endpoint,
        api_key=api_key,
        model_id=config.backend.model_id,
        timeout_s=config.backend.timeout_s,
    )
