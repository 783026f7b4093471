"""SPICE-subset netlist parser and circuit IR.

Supported elements (first letter of the device id, case-insensitive):
    M  - MOSFET      M<id> <d> <g> <s> <b> <model> W=<val> L=<val>
    R  - Resistor    R<id> <n1> <n2> <val>
    C  - Capacitor   C<id> <n1> <n2> <val>
    V  - V source    V<id> <n+> <n-> [DC] <val> [AC <mag>]
    I  - I source    I<id> <n+> <n-> [DC] <val> [AC <mag>]

Comments start with `*` or `;`, continuation lines with `+`, and the
netlist may end with `.end`.  Any value may be a `{name}` placeholder
that is later bound to a number through a ParameterSpace.  SI suffixes
f p n u m k meg g are resolved at parse time ("m" is always milli,
"meg" is the only multi-character suffix).

Node "0" is ground and must be present in every circuit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np


class NetlistError(ValueError):
    """Raised on malformed netlist text; carries the offending line number."""

    def __init__(self, reason: str, line_no: int | None = None):
        self.line_no = line_no
        self.reason = reason
        msg = f"line {line_no}: {reason}" if line_no is not None else reason
        super().__init__(msg)


class BindingError(ValueError):
    """Raised when a parameter point cannot be bound to a circuit."""


class DeviceKind(Enum):
    MOSFET = "mosfet"
    RESISTOR = "resistor"
    CAPACITOR = "capacitor"
    VSOURCE = "vsource"
    ISOURCE = "isource"


@dataclass(frozen=True)
class Param:
    """Reference to a named sizing placeholder (`{name}` in the netlist)."""

    name: str


@dataclass(frozen=True)
class Device:
    id: str
    kind: DeviceKind
    terminals: tuple[str, ...]
    values: dict[str, float | Param]
    model: str | None = None

    def value(self, slot: str) -> float:
        v = self.values[slot]
        if isinstance(v, Param):
            raise BindingError(f"{self.id}: slot {slot} is unbound placeholder {{{v.name}}}")
        return v


@dataclass(frozen=True)
class Circuit:
    devices: tuple[Device, ...]
    nets: frozenset[str]
    params: tuple[str, ...]
    title: str = ""

    def mosfets(self) -> list[Device]:
        return [d for d in self.devices if d.kind is DeviceKind.MOSFET]


@dataclass(frozen=True)
class SpaceEntry:
    name: str
    lo: float
    hi: float
    unit: str = ""
    scale: str = "linear"  # "linear" | "log"


@dataclass(frozen=True)
class ParameterSpace:
    entries: tuple[SpaceEntry, ...]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.name in seen:
                raise ValueError(f"duplicate parameter name {e.name!r}")
            seen.add(e.name)
            if not (e.lo < e.hi):
                raise ValueError(f"parameter {e.name!r}: lo must be < hi (got {e.lo}, {e.hi})")
            if e.scale not in ("linear", "log"):
                raise ValueError(f"parameter {e.name!r}: scale must be linear or log")
            if e.scale == "log" and e.lo <= 0:
                raise ValueError(f"parameter {e.name!r}: log scale requires lo > 0")

    # computed on first use and kept; equality and hashing still see the fields only
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    @cached_property
    def _by_name(self) -> dict[str, SpaceEntry]:
        return {e.name: e for e in self.entries}

    def entry(self, name: str) -> SpaceEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(name) from None

    def midpoint(self) -> dict[str, float]:
        """Centre of the box (geometric centre for log-scaled entries)."""
        out = {}
        for e in self.entries:
            if e.scale == "log":
                out[e.name] = math.exp(0.5 * (math.log(e.lo) + math.log(e.hi)))
            else:
                out[e.name] = 0.5 * (e.lo + e.hi)
        return out


@dataclass(frozen=True)
class MatchingGroup:
    kind: str  # "equal" | "ratio"
    members: tuple[str, ...]
    ratios: tuple[float, ...] = field(default=())
    rationale: str = ""

    def __post_init__(self):
        if self.kind not in ("equal", "ratio"):
            raise ValueError(f"matching group kind must be equal or ratio, got {self.kind!r}")
        if len(self.members) < 2:
            raise ValueError("matching group needs at least 2 members")
        if len(set(self.members)) != len(self.members):
            raise ValueError("matching group members must be distinct")
        if self.kind == "ratio":
            if len(self.ratios) != len(self.members):
                raise ValueError("ratio group needs one ratio per member")
            if any(r <= 0 for r in self.ratios):
                raise ValueError("ratios must be strictly positive")


# ---------------------------------------------------------------------------
# value tokens

_SUFFIXES = {
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "k": 1e3,
    "meg": 1e6,
    "g": 1e9,
}

_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(meg|[fpnumkg])?$", re.IGNORECASE
)
_PLACEHOLDER_RE = re.compile(r"^\{([A-Za-z_][A-Za-z0-9_]*)\}$")


def parse_value(token: str) -> float | Param:
    """Parse a single value token: a number with optional SI suffix, or `{name}`."""
    m = _PLACEHOLDER_RE.match(token)
    if m:
        return Param(m.group(1))
    m = _NUMBER_RE.match(token)
    if m:
        num, suffix = m.groups()
        value = float(num)
        if suffix:
            value *= _SUFFIXES[suffix.lower()]
        return value
    raise ValueError(f"cannot parse value {token!r}")


def _fmt_value(v: float | Param) -> str:
    if isinstance(v, Param):
        return "{" + v.name + "}"
    return repr(float(v))


# ---------------------------------------------------------------------------
# parsing

_DEVICE_PREFIXES = "MRCVI"

_POSITIVE_SLOTS = {"R", "C", "W", "L"}


def _join_lines(text: str) -> list[tuple[int, str]]:
    """Strip comments, join `+` continuations; returns (line_no, text) pairs."""
    out: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not out:
                raise NetlistError("continuation with no preceding line", no)
            prev_no, prev = out[-1]
            out[-1] = (prev_no, prev + " " + stripped[1:].strip())
        else:
            out.append((no, stripped))
    return out


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a Circuit.

    The first line is taken as the title when it is not a device line
    (i.e. does not start with M/R/C/V/I) and not a dot directive; titles
    that begin with a device letter are not representable and must be
    written as a `*` comment instead.
    """
    if not text or not text.strip():
        raise NetlistError("empty netlist")
    lines = _join_lines(text)
    if not lines:
        raise NetlistError("netlist contains no devices")

    title = ""
    first_no, first = lines[0]
    if not first.startswith(".") and first[0].upper() not in _DEVICE_PREFIXES:
        title = first
        lines = lines[1:]

    devices: list[Device] = []
    seen_ids: set[str] = set()
    nets: list[str] = []
    params: list[str] = []

    def note_net(n: str):
        if n not in nets:
            nets.append(n)

    def note_value(v: float | Param, slot: str, dev_id: str, no: int):
        if isinstance(v, Param):
            if v.name not in params:
                params.append(v.name)
        else:
            if not (v == v and abs(v) != float("inf")):
                raise NetlistError(f"{dev_id}: non-finite value for {slot}", no)
            if slot in _POSITIVE_SLOTS and v <= 0:
                raise NetlistError(f"{dev_id}: {slot} must be strictly positive", no)

    for no, line in lines:
        if line.startswith("."):
            if line.lower().split()[0] == ".end":
                break
            raise NetlistError(f"unsupported directive {line.split()[0]!r}", no)
        tokens = line.split()
        dev_id = tokens[0]
        prefix = dev_id[0].upper()
        if prefix not in _DEVICE_PREFIXES:
            raise NetlistError(f"unknown device prefix {dev_id[0]!r} in {dev_id!r}", no)
        if dev_id.upper() in seen_ids:
            raise NetlistError(f"duplicate device id {dev_id!r}", no)
        seen_ids.add(dev_id.upper())

        try:
            if prefix == "M":
                dev = _parse_mosfet(tokens)
            elif prefix in "RC":
                dev = _parse_two_terminal(tokens, prefix)
            else:
                dev = _parse_source(tokens, prefix)
        except ValueError as exc:
            raise NetlistError(str(exc), no) from exc

        for t in dev.terminals:
            note_net(t)
        for slot, v in dev.values.items():
            note_value(v, slot, dev.id, no)
        devices.append(dev)

    if not devices:
        raise NetlistError("netlist contains no devices")
    if "0" not in nets:
        raise NetlistError("missing ground net \"0\"")
    return Circuit(
        devices=tuple(devices),
        nets=frozenset(nets),
        params=tuple(params),
        title=title,
    )


def _parse_mosfet(tokens: list[str]) -> Device:
    if len(tokens) < 6:
        raise ValueError(f"{tokens[0]}: MOSFET needs 4 terminals and a model name")
    d, g, s, b = tokens[1:5]
    model = tokens[5]
    values: dict[str, float | Param] = {}
    for tok in tokens[6:]:
        if "=" not in tok:
            raise ValueError(f"{tokens[0]}: expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        key = key.upper()
        if key not in ("W", "L"):
            raise ValueError(f"{tokens[0]}: unknown MOSFET parameter {key!r}")
        values[key] = parse_value(val)
    for key in ("W", "L"):
        if key not in values:
            raise ValueError(f"{tokens[0]}: missing {key}=")
    return Device(tokens[0], DeviceKind.MOSFET, (d, g, s, b), values, model=model)


def _parse_two_terminal(tokens: list[str], prefix: str) -> Device:
    if len(tokens) != 4:
        raise ValueError(f"{tokens[0]}: expected '<id> <n1> <n2> <value>'")
    kind = DeviceKind.RESISTOR if prefix == "R" else DeviceKind.CAPACITOR
    slot = "R" if prefix == "R" else "C"
    return Device(tokens[0], kind, (tokens[1], tokens[2]), {slot: parse_value(tokens[3])})


def _parse_source(tokens: list[str], prefix: str) -> Device:
    if len(tokens) < 3:
        raise ValueError(f"{tokens[0]}: source needs two terminals")
    kind = DeviceKind.VSOURCE if prefix == "V" else DeviceKind.ISOURCE
    values: dict[str, float | Param] = {}
    rest = tokens[3:]
    i = 0
    while i < len(rest):
        tok = rest[i]
        up = tok.upper()
        if up == "DC":
            if i + 1 >= len(rest):
                raise ValueError(f"{tokens[0]}: DC keyword without value")
            values["DC"] = parse_value(rest[i + 1])
            i += 2
        elif up == "AC":
            if i + 1 >= len(rest):
                raise ValueError(f"{tokens[0]}: AC keyword without value")
            values["AC"] = parse_value(rest[i + 1])
            i += 2
        elif "DC" not in values:
            values["DC"] = parse_value(tok)
            i += 1
        else:
            raise ValueError(f"{tokens[0]}: unexpected token {tok!r}")
    if "DC" not in values:
        values["DC"] = 0.0
    return Device(tokens[0], kind, (tokens[1], tokens[2]), values)


# ---------------------------------------------------------------------------
# serialization

def serialize_netlist(c: Circuit) -> str:
    """Render a Circuit back to netlist text; parse(serialize(c)) == c."""
    lines: list[str] = []
    if c.title:
        lines.append(c.title)
    for d in c.devices:
        if d.kind is DeviceKind.MOSFET:
            lines.append(
                f"{d.id} {' '.join(d.terminals)} {d.model} "
                f"W={_fmt_value(d.values['W'])} L={_fmt_value(d.values['L'])}"
            )
        elif d.kind is DeviceKind.RESISTOR:
            lines.append(f"{d.id} {' '.join(d.terminals)} {_fmt_value(d.values['R'])}")
        elif d.kind is DeviceKind.CAPACITOR:
            lines.append(f"{d.id} {' '.join(d.terminals)} {_fmt_value(d.values['C'])}")
        else:
            parts = [d.id, *d.terminals, "DC", _fmt_value(d.values["DC"])]
            if "AC" in d.values:
                parts += ["AC", _fmt_value(d.values["AC"])]
            lines.append(" ".join(parts))
    lines.append(".end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# binding and the feasible set

def bind_parameters(topology, space: ParameterSpace, point: dict[str, float]):
    """Check `point` against `space` and return `topology.bind(point)`.

    `topology` is a circuit compiled once per run (`simulator.Topology`);
    the result is its MNA system at `point`, which every analysis takes.
    Every placeholder of the circuit must be covered by `point` and lie
    inside the [lo, hi] range of its ParameterSpace entry.
    """
    for name in space.names:
        if name not in topology.params:
            raise BindingError(f"space parameter {name!r} has no placeholder in the circuit")
    by_name = space._by_name
    for name in topology.params:
        if name not in point:
            raise BindingError(f"missing parameter {name!r}")
        e = by_name.get(name)
        if e is None:
            raise BindingError(f"parameter {name!r} not present in the parameter space")
        v = point[name]
        if not (e.lo <= v <= e.hi):
            raise BindingError(
                f"parameter {name!r} = {v} outside range [{e.lo}, {e.hi}]"
            )
    return topology.bind(point)


def _leader_range(g: MatchingGroup, space: ParameterSpace) -> tuple[float, float]:
    """Leader values that keep every member of ratio group `g` in its bounds."""
    lo, hi = -math.inf, math.inf
    for m, r in zip(g.members, g.ratios):
        e = space.entry(m)
        scale = r / g.ratios[0]  # the member's value is leader * scale
        lo, hi = max(lo, e.lo / scale), min(hi, e.hi / scale)
    return lo, hi


def validate_matching_groups(
    groups: list[MatchingGroup] | tuple[MatchingGroup, ...], space: ParameterSpace
) -> list[str]:
    """Return a list of problems (empty when the groups are usable).

    Every member must be a space parameter in at most one group.  Equal-group
    members must share identical bounds, and a ratio group needs a leader
    value that keeps every member in bounds, so that matching and range
    clamping cannot fight each other.
    """
    problems = []
    names = set(space.names)
    grouped: set[str] = set()
    for g in groups:
        members = list(g.members)
        unknown = [m for m in members if m not in names]
        if unknown:
            problems.append(f"matching group references unknown parameters {unknown}")
            continue
        shared = [m for m in members if m in grouped]
        if shared:
            problems.append(f"matching group {members}: {shared} already in another group")
        grouped.update(members)
        if g.kind == "equal":
            e0 = space.entry(members[0])
            for m in members[1:]:
                e = space.entry(m)
                if (e.lo, e.hi) != (e0.lo, e0.hi):
                    problems.append(
                        f"equal group {members}: {m!r} has different bounds than {members[0]!r}"
                    )
        else:
            lo, hi = _leader_range(g, space)
            if lo > hi:
                problems.append(f"ratio group {members} cannot be satisfied inside the bounds")
    return problems


class FeasibleSet:
    """The points that satisfy the matching groups and the parameter bounds.

    Projection clips every parameter into its range, copies each equal
    group's clipped leader to its members, and clips each ratio group's
    leader to the range where every member stays in bounds before scaling
    it; a scaled member is clipped once more to its own bounds, since
    `leader * scale` may round one ulp past them.  Projected points are
    fixed points: projecting them again returns the same bits.
    """

    def __init__(
        self, space: ParameterSpace, groups: list[MatchingGroup] | tuple[MatchingGroup, ...] = ()
    ):
        problems = validate_matching_groups(groups, space)
        if problems:
            raise ValueError("; ".join(problems))
        self.names = space.names
        index = {n: i for i, n in enumerate(self.names)}
        self.lo = np.array([e.lo for e in space.entries])
        self.hi = np.array([e.hi for e in space.entries])
        self._source = np.arange(len(self.names))
        self._ratio = []
        for g in groups:
            cols = [index[m] for m in g.members]
            if g.kind == "equal":
                self._source[cols] = cols[0]
            else:
                lo, hi = _leader_range(g, space)
                scales = np.array([r / g.ratios[0] for r in g.ratios])
                self._ratio.append((cols[0], lo, hi, cols, scales))

    def project_matrix(self, v: np.ndarray) -> np.ndarray:
        """Project each row (columns in `names` order) into the set."""
        v = np.clip(np.atleast_2d(v), self.lo, self.hi)[:, self._source]
        for lead, lo, hi, cols, scales in self._ratio:
            scaled = np.clip(v[:, lead], lo, hi)[:, None] * scales
            v[:, cols] = np.clip(scaled, self.lo[cols], self.hi[cols])
        return v

    def project(self, point: dict[str, float]) -> dict[str, float]:
        """The projected point, keyed by parameter name in `names` order."""
        row = self.project_matrix(np.array([float(point[n]) for n in self.names]))[0]
        return dict(zip(self.names, row.tolist()))
