"""Structured-output contracts for agent responses.

Each agent must answer with a JSON object; this module extracts that
object from free-form text, validates it against the agent's schema,
and drives the bounded re-prompt loop when validation fails.  Bounds
problems on proposed parameter values are repaired by clamping (with a
note for the trace) instead of being retried, so weak backends still
make progress.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .netlist import MatchingGroup, ParameterSpace, validate_matching_groups
from .state import REGION_GOALS

TOOL_CHOICES = ("full_sim", "dc_sim")
ACTION_CHOICES = ("propose", "optimize")


class SchemaViolation(ValueError):
    """A retryable problem: bad JSON, wrong field names, or wrong types."""


@dataclass(frozen=True)
class Attempt:
    raw_text: str
    violation: str


class SchemaFailure(RuntimeError):
    """All attempts failed; carries every attempt for the trace."""

    def __init__(self, schema_id: str, attempts: tuple[Attempt, ...]):
        super().__init__(
            f"schema {schema_id!r} not satisfied after {len(attempts)} attempt(s); "
            f"last violation: {attempts[-1].violation if attempts else 'none'}"
        )
        self.schema_id = schema_id
        self.attempts = attempts


@dataclass(frozen=True)
class SchemaContext:
    """Circuit facts validators need: the space and the transistor names."""

    space: ParameterSpace
    mosfet_names: tuple[str, ...] = ()


@dataclass(frozen=True)
class EnforcedOutput:
    payload: dict
    notes: tuple[str, ...]  # non-retryable repairs, e.g. bound clamps
    failed_attempts: tuple[Attempt, ...]
    attempts_used: int


def parse_structured(text: str) -> dict:
    """Extract and parse the first balanced top-level JSON object in text."""
    start = text.find("{")
    if start < 0:
        raise SchemaViolation("no JSON object found in the response")
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                try:
                    doc = json.loads(text[start : i + 1])
                except json.JSONDecodeError as exc:
                    raise SchemaViolation(f"invalid JSON: {exc}") from exc
                if not isinstance(doc, dict):
                    raise SchemaViolation("top-level JSON value must be an object")
                return doc
    raise SchemaViolation("JSON object is never closed")


def _require_str(doc: dict, key: str, default: str | None = None) -> str:
    if key not in doc:
        if default is not None:
            return default
        raise SchemaViolation(f"missing field {key!r}")
    if not isinstance(doc[key], str):
        raise SchemaViolation(f"field {key!r} must be a string")
    return doc[key]


def _require_bool(doc: dict, key: str, default: bool | None = None) -> bool:
    if key not in doc:
        if default is not None:
            return default
        raise SchemaViolation(f"missing field {key!r}")
    if not isinstance(doc[key], bool):
        raise SchemaViolation(f"field {key!r} must be true or false")
    return doc[key]


def _as_number(value, label: str) -> float:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(f"{label} must be a number")
    v = float(value)
    if v != v or v in (float("inf"), float("-inf")):
        raise SchemaViolation(f"{label} must be finite")
    return v


def _choice(doc: dict, key: str, choices, default: str | None = None) -> str:
    value = _require_str(doc, key, default=default)
    if value not in choices:
        raise SchemaViolation(f"field {key!r} must be one of {list(choices)}, got {value!r}")
    return value


def _validate_parameters(raw, ctx: SchemaContext, notes: list[str]) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise SchemaViolation("field 'parameters' must be an object of name -> number")
    missing = [n for n in ctx.space.names if n not in raw]
    extra = [n for n in raw if n not in ctx.space.names]
    if missing:
        raise SchemaViolation(f"parameters missing {missing}")
    if extra:
        raise SchemaViolation(f"parameters include unknown names {extra}")
    point: dict[str, float] = {}
    for name in ctx.space.names:
        v = _as_number(raw[name], f"parameter {name!r}")
        entry = ctx.space.entry(name)
        clamped = min(max(v, entry.lo), entry.hi)
        if clamped != v:
            notes.append(f"clamped {name} from {v:.6g} to {clamped:.6g}")
        point[name] = clamped
    return point


def _validate_explanation(doc: dict, ctx: SchemaContext, notes: list[str]) -> dict:
    text = _require_str(doc, "explanation")
    if not text.strip():
        raise SchemaViolation("field 'explanation' must not be empty")
    return {"explanation": text}


def _validate_matching_groups(doc: dict, ctx: SchemaContext, notes: list[str]) -> dict:
    raw = doc.get("groups")
    if not isinstance(raw, list):
        raise SchemaViolation("field 'groups' must be a list (may be empty)")
    groups = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SchemaViolation(f"groups[{i}] must be an object")
        kind = _choice(item, "kind", ("equal", "ratio"))
        members = item.get("members")
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise SchemaViolation(f"groups[{i}].members must be a list of parameter names")
        ratios: tuple[float, ...] = ()
        if kind == "ratio":
            raw_ratios = item.get("ratios")
            if not isinstance(raw_ratios, list):
                raise SchemaViolation(f"groups[{i}].ratios is required for ratio groups")
            ratios = tuple(
                _as_number(r, f"groups[{i}].ratios[{j}]") for j, r in enumerate(raw_ratios)
            )
        try:
            group = MatchingGroup(
                kind=kind,
                members=tuple(members),
                ratios=ratios,
                rationale=_require_str(item, "rationale", default=""),
            )
        except ValueError as exc:
            raise SchemaViolation(f"groups[{i}]: {exc}") from exc
        groups.append(group)
    problems = validate_matching_groups(groups, ctx.space)
    if problems:
        raise SchemaViolation("; ".join(problems))
    return {"groups": tuple(groups), "rationale": _require_str(doc, "rationale", default="")}


def _validate_dc_goals(doc: dict, ctx: SchemaContext, notes: list[str]) -> dict:
    raw = doc.get("goals")
    if not isinstance(raw, dict):
        raise SchemaViolation("field 'goals' must be an object of device -> region")
    goals: dict[str, str] = {}
    for dev, region in raw.items():
        if dev not in ctx.mosfet_names:
            raise SchemaViolation(f"goals name unknown transistor {dev!r}")
        if region not in REGION_GOALS:
            raise SchemaViolation(
                f"goals[{dev!r}] must be one of {list(REGION_GOALS)}, got {region!r}"
            )
        goals[dev] = region
    return {"goals": goals, "rationale": _require_str(doc, "rationale", default="")}


def _validate_sizing_proposal(doc: dict, ctx: SchemaContext, notes: list[str]) -> dict:
    if "parameters" not in doc:
        raise SchemaViolation("missing field 'parameters'")
    point = _validate_parameters(doc["parameters"], ctx, notes)
    return {"parameters": point, "rationale": _require_str(doc, "rationale", default="")}


def _validate_dc_review(doc: dict, ctx: SchemaContext, notes: list[str]) -> dict:
    goals_met = _require_bool(doc, "goals_met")
    raw = doc.get("discrepancies", [])
    if isinstance(raw, str):
        raw = [raw] if raw else []
    if not isinstance(raw, list) or not all(isinstance(d, str) for d in raw):
        raise SchemaViolation("field 'discrepancies' must be a string or list of strings")
    return {
        "goals_met": goals_met,
        "discrepancies": tuple(raw),
        "feedback": _require_str(doc, "feedback", default=""),
    }


def _validate_specs_review(doc: dict, ctx: SchemaContext, notes: list[str]) -> dict:
    return {
        "critique": _require_str(doc, "critique", default=""),
        "feedback": _require_str(doc, "feedback", default=""),
        "next_tool": _choice(doc, "next_tool", TOOL_CHOICES),
    }


def _validate_advisor_review(doc: dict, ctx: SchemaContext, notes: list[str]) -> dict:
    return {
        "critique": _require_str(doc, "critique", default=""),
        "feedback": _require_str(doc, "feedback", default=""),
        "stagnation": _require_bool(doc, "stagnation", default=False),
        "advise_optimizer": _require_bool(doc, "advise_optimizer"),
        "next_tool": _choice(doc, "next_tool", TOOL_CHOICES),
    }


def _validate_equipped_sizing(doc: dict, ctx: SchemaContext, notes: list[str]) -> dict:
    action = _choice(doc, "action", ACTION_CHOICES)
    out = {"action": action, "rationale": _require_str(doc, "rationale", default="")}
    if action == "propose":
        if "parameters" not in doc:
            raise SchemaViolation("action 'propose' requires field 'parameters'")
        out["parameters"] = _validate_parameters(doc["parameters"], ctx, notes)
    else:
        budget = doc.get("optimizer_budget")
        if isinstance(budget, bool) or not isinstance(budget, int):
            raise SchemaViolation("action 'optimize' requires integer field 'optimizer_budget'")
        if budget < 1:
            raise SchemaViolation("field 'optimizer_budget' must be >= 1")
        out["optimizer_budget"] = budget
        out["algorithm"] = _choice(doc, "algorithm", ("bo", "de"), default="bo")
    return out


# schema id -> (validator, the JSON shape shown to the agent)
_SCHEMAS = {
    "explanation": (
        _validate_explanation,
        '{"explanation": "<role of each device and the overall topology>"}',
    ),
    "matching_groups": (
        _validate_matching_groups,
        '{"groups": [{"kind": "equal|ratio", "members": ["<param>", ...], '
        '"ratios": [<number>, ...]}], "rationale": "<text>"}',
    ),
    "dc_goals": (
        _validate_dc_goals,
        '{"goals": {"<transistor>": "cutoff|triode|saturation", ...}, "rationale": "<text>"}',
    ),
    "sizing_proposal": (
        _validate_sizing_proposal,
        '{"parameters": {"<param>": <number>, ... one entry per sizing parameter}, '
        '"rationale": "<why these values>"}',
    ),
    "dc_review": (
        _validate_dc_review,
        '{"goals_met": <true|false>, "discrepancies": ["<device: observed vs goal>", ...], '
        '"feedback": "<suggested modifications>"}',
    ),
    "specs_review": (
        _validate_specs_review,
        '{"critique": "<which targets fail and why>", "feedback": "<guidance for the sizer>", '
        '"next_tool": "full_sim|dc_sim"}',
    ),
    "advisor_review": (
        _validate_advisor_review,
        '{"critique": "<progress assessment>", "feedback": "<guidance>", '
        '"stagnation": <true|false>, "advise_optimizer": <true|false>, '
        '"next_tool": "full_sim|dc_sim"}',
    ),
    "equipped_sizing": (
        _validate_equipped_sizing,
        '{"action": "propose|optimize", "rationale": "<text>", '
        '"parameters": {"<param>": <number>, ...} (when proposing), '
        '"optimizer_budget": <int>, "algorithm": "bo|de" (when optimizing)}',
    ),
}


def schema_hint(schema_id: str) -> str:
    if schema_id not in _SCHEMAS:
        raise KeyError(f"unknown schema id {schema_id!r}")
    return _SCHEMAS[schema_id][1]


def validate(schema_id: str, doc: dict, ctx: SchemaContext) -> tuple[dict, tuple[str, ...]]:
    """Validate one parsed document; returns (payload, repair notes)."""
    if schema_id not in _SCHEMAS:
        raise KeyError(f"unknown schema id {schema_id!r}")
    notes: list[str] = []
    payload = _SCHEMAS[schema_id][0](doc, ctx, notes)
    return payload, tuple(notes)


def enforce_schema(
    raw_text: str,
    schema_id: str,
    ctx: SchemaContext,
    reprompt=None,
    max_retries: int = 3,
) -> EnforcedOutput:
    """Parse/validate raw_text, re-prompting on violations.

    `reprompt(violation)` must return the backend's corrected text; it is
    called at most max_retries - 1 times.  Raises SchemaFailure carrying
    every failed attempt once the budget is spent (or immediately when no
    reprompt hook is given).
    """
    attempts: list[Attempt] = []
    text = raw_text
    for attempt in range(1, max_retries + 1):
        try:
            doc = parse_structured(text)
            payload, notes = validate(schema_id, doc, ctx)
            return EnforcedOutput(payload, notes, tuple(attempts), attempt)
        except SchemaViolation as exc:
            attempts.append(Attempt(raw_text=text, violation=str(exc)))
            if attempt == max_retries or reprompt is None:
                break
            text = reprompt(str(exc))
    raise SchemaFailure(schema_id, tuple(attempts))
