import math
import random

import pytest

from amsizer.netlist import (
    BindingError,
    Circuit,
    Device,
    DeviceKind,
    FeasibleSet,
    MatchingGroup,
    NetlistError,
    Param,
    ParameterSpace,
    SpaceEntry,
    bind_parameters,
    parse_netlist,
    parse_value,
    serialize_netlist,
    validate_matching_groups,
)
from amsizer.mosfet import DEFAULT_MODEL_CARDS
from amsizer.simulator import Topology, solve_dc


def _device(circuit, dev_id):
    """The device named `dev_id` (KeyError if none)."""
    return {d.id: d for d in circuit.devices}[dev_id]


def test_parse_resistor_basic():
    c = parse_netlist("R1 in out 1k\nV1 in 0 1\n")
    r = _device(c, "R1")
    assert r.kind is DeviceKind.RESISTOR
    assert r.terminals == ("in", "out")
    assert r.values["R"] == 1000.0


def test_parse_value_suffixes():
    assert parse_value("1k") == 1000.0
    assert parse_value("1K") == 1000.0
    assert parse_value("2.2u") == pytest.approx(2.2e-6)
    assert parse_value("100n") == pytest.approx(100e-9)
    assert parse_value("3meg") == pytest.approx(3e6)
    assert parse_value("3MEG") == pytest.approx(3e6)
    assert parse_value("5p") == pytest.approx(5e-12)
    assert parse_value("7f") == pytest.approx(7e-15)
    assert parse_value("2g") == pytest.approx(2e9)
    assert parse_value("1.5m") == pytest.approx(1.5e-3)
    assert parse_value("-3m") == pytest.approx(-3e-3)
    assert parse_value("1e-6") == 1e-6
    assert parse_value(".5") == 0.5


def test_parse_value_placeholder():
    v = parse_value("{W1}")
    assert isinstance(v, Param)
    assert v.name == "W1"


def test_parse_value_rejects_garbage():
    for bad in ("", "abc", "1kk", "{1bad}", "--3", "1e", "{ }"):
        with pytest.raises(ValueError):
            parse_value(bad)


def test_parse_mosfet_with_placeholders():
    c = parse_netlist("M1 d g s b NMOS W={W1} L={L1}\nV1 d 0 1\n")
    m = _device(c, "M1")
    assert m.kind is DeviceKind.MOSFET
    assert m.terminals == ("d", "g", "s", "b")
    assert m.model == "NMOS"
    assert c.params == ("W1", "L1")


def test_title_line_is_kept():
    c = parse_netlist("two stage opamp\nR1 a 0 1k\n")
    assert c.title == "two stage opamp"
    assert len(c.devices) == 1


def test_first_device_line_is_not_a_title():
    c = parse_netlist("R1 a 0 1k\nC1 a 0 1p\n")
    assert c.title == ""
    assert len(c.devices) == 2


def test_comments_and_continuations():
    text = (
        "* full-line comment\n"
        "test circuit\n"
        "M1 d g s b NMOS\n"
        "+ W=10u L=1u  ; trailing comment\n"
        "V1 d 0 1.8\n"
        "* another\n"
        ".end\n"
    )
    c = parse_netlist(text)
    m = _device(c, "M1")
    assert m.values["W"] == pytest.approx(10e-6)
    assert m.values["L"] == pytest.approx(1e-6)


def test_source_forms():
    c = parse_netlist(
        "V1 a 0 DC 1.8 AC 1.0\n"
        "V2 b 0 0.9\n"
        "I1 a b 40u\n"
        "V3 c 0 DC 0.5\n"
    )
    assert _device(c, "V1").values == {"DC": 1.8, "AC": 1.0}
    assert _device(c, "V2").values == {"DC": 0.9}
    assert _device(c, "I1").values == {"DC": pytest.approx(40e-6)}
    assert _device(c, "V3").values == {"DC": 0.5}


def test_missing_ground_is_an_error():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("R1 a b 1k\n")
    assert "ground" in str(exc.value)


def test_duplicate_device_id_is_an_error():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("R1 a 0 1k\nR1 b 0 2k\n")
    assert exc.value.line_no == 2


def test_error_carries_line_number():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("ok title\nR1 a 0 1k\nM2 d g s\n")
    assert exc.value.line_no == 3


def test_nonpositive_resistance_rejected():
    with pytest.raises(NetlistError):
        parse_netlist("R1 a 0 -1k\nV1 a 0 1\n")
    with pytest.raises(NetlistError):
        parse_netlist("R1 a 0 0\nV1 a 0 1\n")


def test_unknown_directive_rejected():
    with pytest.raises(NetlistError):
        parse_netlist("R1 a 0 1k\n.tran 1n 1u\n")


def test_empty_netlist_rejected():
    with pytest.raises(NetlistError):
        parse_netlist("")
    with pytest.raises(NetlistError):
        parse_netlist("* only a comment\n")


# ---------------------------------------------------------------------------
# binding

def _space(**ranges):
    return ParameterSpace(
        tuple(SpaceEntry(n, lo, hi) for n, (lo, hi) in ranges.items())
    )


def _constants(circuit, point):
    """`circuit` holding `point`'s values as constants, as no parsed netlist
    can where a value is not positive or not a number."""
    return Circuit(tuple(
        Device(d.id, d.kind, d.terminals, {
            slot: point[v.name] if isinstance(v, Param) else v for slot, v in d.values.items()
        }, model=d.model)
        for d in circuit.devices
    ), circuit.nets, (), circuit.title)


def test_bind_parameters_substitutes():
    c = parse_netlist("M1 d g 0 0 NMOS W={W1} L={L1}\nV1 d 0 1\n")
    space = _space(W1=(1e-6, 100e-6), L1=(0.18e-6, 5e-6))
    bound = bind_parameters(Topology(c, DEFAULT_MODEL_CARDS), space, {"W1": 10e-6, "L1": 1e-6})
    # the compiled topology keeps its placeholders; the point fills the values
    assert bound.topology.params == ("W1", "L1")
    assert bound.value("M1", "W") == 10e-6
    assert bound.value("M1", "L") == 1e-6
    # original untouched
    assert c.params == ("W1", "L1")


def test_bind_missing_parameter():
    c = parse_netlist("M1 d g 0 0 NMOS W={W1} L={L1}\nV1 d 0 1\n")
    space = _space(W1=(1e-6, 100e-6), L1=(0.18e-6, 5e-6))
    with pytest.raises(BindingError) as exc:
        bind_parameters(Topology(c, DEFAULT_MODEL_CARDS), space, {"W1": 10e-6})
    assert "L1" in str(exc.value)


def test_bind_out_of_range():
    c = parse_netlist("M1 d g 0 0 NMOS W={W1} L={L1}\nV1 d 0 1\n")
    space = _space(W1=(1e-6, 100e-6), L1=(0.18e-6, 5e-6))
    with pytest.raises(BindingError) as exc:
        bind_parameters(Topology(c, DEFAULT_MODEL_CARDS), space, {"W1": 200e-6, "L1": 1e-6})
    assert "W1" in str(exc.value)


ALL_SLOTS = """Every positive slot kind as a placeholder
VDD vdd 0 DC 1.8
VIN in 0 DC 0.7 AC 1
M1 out in 0 0 NMOS W={W1} L={L1}
R1 vdd out {RL}
C1 out 0 {CL}
.end
"""
ALL_SLOTS_OK = {"W1": 1e-5, "L1": 1e-6, "RL": 1e3, "CL": 1e-12}


@pytest.mark.parametrize("name, value, message", [
    ("RL", 0.0, "R1: R = 0 must be strictly positive"),
    ("RL", -1e3, "R1: R = -1000 must be strictly positive"),
    ("CL", -1e-12, "C1: C = -1e-12 must be strictly positive"),
    ("W1", -1e-5, "M1: W = -1e-05 must be strictly positive"),
    ("L1", 0.0, "M1: L = 0 must be strictly positive"),
])
def test_bind_rejects_a_non_positive_value(name, value, message):
    c = parse_netlist(ALL_SLOTS)
    space = _space(W1=(-1.0, 1.0), L1=(-1.0, 1.0), RL=(-1e6, 1e6), CL=(-1.0, 1.0))
    point = {**ALL_SLOTS_OK, name: value}
    with pytest.raises(BindingError, match=f"^{message}$"):
        bind_parameters(Topology(c, DEFAULT_MODEL_CARDS), space, point)
    # a circuit that holds the value as a constant is checked alike
    with pytest.raises(BindingError, match=f"^{message}$"):
        solve_dc(Topology(_constants(c, point), DEFAULT_MODEL_CARDS).bind({}))


def test_bind_rejects_a_nan_value():
    c = _constants(parse_netlist(ALL_SLOTS), {**ALL_SLOTS_OK, "CL": math.nan})
    with pytest.raises(BindingError, match="^C1: C = nan must be strictly positive$"):
        Topology(c, DEFAULT_MODEL_CARDS).bind({})


def test_bind_space_param_not_in_circuit():
    c = parse_netlist("R1 a 0 {R1v}\nV1 a 0 1\n")
    space = _space(R1v=(1.0, 1e6), ghost=(0.0, 1.0))
    with pytest.raises(BindingError) as exc:
        bind_parameters(Topology(c, {}), space, {"R1v": 100.0, "ghost": 0.5})
    assert "ghost" in str(exc.value)


def test_space_clamp_and_midpoint():
    space = ParameterSpace(
        (
            SpaceEntry("a", 0.0, 10.0),
            SpaceEntry("b", 1.0, 100.0, scale="log"),
        )
    )
    assert FeasibleSet(space).project({"a": -5.0, "b": 1e4}) == {"a": 0.0, "b": 100.0}
    mid = space.midpoint()
    assert mid["a"] == 5.0
    assert mid["b"] == pytest.approx(10.0)


def test_space_validation():
    with pytest.raises(ValueError):
        ParameterSpace((SpaceEntry("a", 1.0, 1.0),))
    with pytest.raises(ValueError):
        ParameterSpace((SpaceEntry("a", 0.0, 1.0), SpaceEntry("a", 0.0, 2.0)))
    with pytest.raises(ValueError):
        ParameterSpace((SpaceEntry("a", -1.0, 1.0, scale="log"),))


# ---------------------------------------------------------------------------
# matching

def test_apply_matching_equal():
    g = MatchingGroup("equal", ("W1", "W2"))
    space = _space(W1=(0.0, 10.0), W2=(0.0, 10.0), W3=(0.0, 10.0))
    out = FeasibleSet(space, [g]).project({"W1": 3.0, "W2": 7.0, "W3": 9.0})
    assert out == {"W1": 3.0, "W2": 3.0, "W3": 9.0}


def test_apply_matching_ratio():
    g = MatchingGroup("ratio", ("W3", "W4"), ratios=(1.0, 2.0))
    space = _space(W3=(0.0, 100.0), W4=(0.0, 100.0))
    out = FeasibleSet(space, [g]).project({"W3": 5.0, "W4": 1.0})
    assert out == {"W3": 5.0, "W4": 10.0}


def test_apply_matching_idempotent():
    rng = random.Random(7)
    groups = [
        MatchingGroup("equal", ("a", "b", "c")),
        MatchingGroup("ratio", ("d", "e"), ratios=(2.0, 3.0)),
    ]
    feasible = FeasibleSet(_space(**{k: (0.1, 10.0) for k in "abcdef"}), groups)
    for _ in range(50):
        p = {k: rng.uniform(0.1, 10) for k in "abcdef"}
        once = feasible.project(p)
        assert feasible.project(once) == once


def test_project_keeps_ratio_group_and_bounds_together():
    # the leader may not exceed hi / 4, or its partner would leave its range
    g = MatchingGroup("ratio", ("W5", "W7"), ratios=(1.0, 4.0))
    space = _space(W5=(1e-6, 2e-4), W7=(1e-6, 2e-4))
    out = FeasibleSet(space, [g]).project({"W5": 1e-4, "W7": 4e-4})
    assert out == {"W5": 5e-5, "W7": 2e-4}


def test_project_clips_a_scaled_member_that_rounds_past_its_bound():
    g = MatchingGroup("ratio", ("a", "b"), ratios=(1.0, 2.5))
    space = _space(a=(5e-9, 5e-6), b=(5e-9, 5e-6))
    assert 5e-6 / 2.5 * 2.5 > 5e-6  # the rounding this guards against
    out = FeasibleSet(space, [g]).project({"a": 5e-6, "b": 5e-6})
    assert out == {"a": 5e-6 / 2.5, "b": 5e-6}


def _random_feasible_set(rng: random.Random):
    names = [f"p{i}" for i in range(rng.randint(2, 8))]
    bounds = {}
    for n in names:
        lo = 10 ** rng.uniform(-9, -3)
        bounds[n] = (lo, lo * 10 ** rng.uniform(0.1, 3))
    order = names[:]
    rng.shuffle(order)
    groups = []
    while len(order) >= 2 and rng.random() < 0.7:
        members = tuple(order[: rng.randint(2, min(3, len(order)))])
        order = order[len(members):]
        lo, hi = bounds[members[0]]
        if rng.random() < 0.5:
            for m in members:
                bounds[m] = (lo, hi)
            groups.append(MatchingGroup("equal", members))
        else:
            ratios = (1.0, *(10 ** rng.uniform(-1, 1) for _ in members[1:]))
            exact = rng.random() < 0.5  # member bounds exactly leader bounds * ratio
            for m, r in zip(members[1:], ratios[1:]):
                widen = (1.0, 1.0) if exact else (rng.uniform(0.3, 1), rng.uniform(1, 3))
                bounds[m] = (lo * r * widen[0], hi * r * widen[1])
            groups.append(MatchingGroup("ratio", members, ratios=ratios))
    space = ParameterSpace(
        tuple(SpaceEntry(n, *bounds[n], scale=rng.choice(["linear", "log"])) for n in names)
    )
    return space, groups


def test_project_is_feasible_and_idempotent_fuzzed():
    rng = random.Random(20261018)
    for _ in range(300):
        space, groups = _random_feasible_set(rng)
        feasible = FeasibleSet(space, groups)
        points = []
        for _ in range(5):
            point = {}
            for e in space.entries:
                point[e.name] = rng.choice(
                    [e.lo, e.hi, rng.uniform(e.lo / 10, e.hi * 10), rng.uniform(e.lo, e.hi)]
                )
            points.append(point)
        rows = feasible.project_matrix([[p[n] for n in space.names] for p in points])
        for point, row in zip(points, rows):
            out = feasible.project(point)
            assert list(out) == list(space.names)
            assert list(out.values()) == row.tolist()
            for e in space.entries:
                assert e.lo <= out[e.name] <= e.hi
            for g in groups:
                lead = out[g.members[0]]
                if g.kind == "equal":
                    assert all(out[m] == lead for m in g.members)
                else:
                    for m, r in zip(g.members, g.ratios):
                        assert out[m] == pytest.approx(lead * r / g.ratios[0], rel=1e-12)
            assert feasible.project(out) == out


def test_matching_group_validation():
    with pytest.raises(ValueError):
        MatchingGroup("equal", ("a",))
    with pytest.raises(ValueError):
        MatchingGroup("equal", ("a", "a"))
    with pytest.raises(ValueError):
        MatchingGroup("ratio", ("a", "b"), ratios=(1.0,))
    with pytest.raises(ValueError):
        MatchingGroup("ratio", ("a", "b"), ratios=(1.0, -2.0))
    with pytest.raises(ValueError):
        MatchingGroup("similar", ("a", "b"))


def test_validate_matching_groups():
    space = _space(a=(0.0, 1.0), b=(0.0, 1.0), c=(0.0, 2.0), d=(0.0, 1.0), e=(5.0, 6.0))
    ok = [MatchingGroup("equal", ("a", "b")), MatchingGroup("ratio", ("c", "d"), ratios=(2.0, 1.0))]
    assert validate_matching_groups(ok, space) == []
    bad_bounds = [MatchingGroup("equal", ("a", "c"))]
    assert len(validate_matching_groups(bad_bounds, space)) == 1
    unknown = [MatchingGroup("equal", ("a", "zz"))]
    assert len(validate_matching_groups(unknown, space)) == 1
    overlap = [MatchingGroup("equal", ("a", "b")), MatchingGroup("equal", ("b", "d"))]
    assert validate_matching_groups(overlap, space) == [
        "matching group ['b', 'd']: ['b'] already in another group"
    ]
    # e = 2 * a needs a >= 2.5, but a <= 1
    infeasible = [MatchingGroup("ratio", ("a", "e"), ratios=(1.0, 2.0))]
    assert validate_matching_groups(infeasible, space) == [
        "ratio group ['a', 'e'] cannot be satisfied inside the bounds"
    ]


def test_feasible_set_rejects_what_validation_lists():
    space = _space(a=(0.0, 1.0), b=(0.0, 1.0), c=(0.0, 1.0))
    overlap = [MatchingGroup("equal", ("a", "b")), MatchingGroup("equal", ("b", "c"))]
    with pytest.raises(ValueError, match="already in another group"):
        FeasibleSet(space, overlap)


# ---------------------------------------------------------------------------
# round trip

def _random_circuit(rng: random.Random) -> Circuit:
    devices = []
    nets = ["0", "n1", "n2", "n3", "vdd"]
    n_dev = rng.randint(2, 8)
    placeholder_pool = ["W1", "W2", "L1", "Rb", "Cb"]
    for i in range(n_dev):
        kind = rng.choice("MRCVI")
        pick = lambda: rng.choice(nets)
        if kind == "M":
            w = Param(rng.choice(placeholder_pool)) if rng.random() < 0.4 else rng.uniform(1e-6, 1e-4)
            l = Param(rng.choice(placeholder_pool)) if rng.random() < 0.4 else rng.uniform(1e-7, 1e-5)
            devices.append(
                Device(
                    f"M{i}",
                    DeviceKind.MOSFET,
                    (pick(), pick(), pick(), "0"),
                    {"W": w, "L": l},
                    model=rng.choice(["NMOS", "PMOS"]),
                )
            )
        elif kind == "R":
            devices.append(
                Device(f"R{i}", DeviceKind.RESISTOR, (pick(), pick()), {"R": rng.uniform(1, 1e7)})
            )
        elif kind == "C":
            devices.append(
                Device(f"C{i}", DeviceKind.CAPACITOR, (pick(), pick()), {"C": rng.uniform(1e-15, 1e-6)})
            )
        elif kind == "V":
            vals: dict = {"DC": rng.uniform(-2, 2)}
            if rng.random() < 0.5:
                vals["AC"] = rng.choice([1.0, 0.5])
            devices.append(Device(f"V{i}", DeviceKind.VSOURCE, (pick(), pick()), vals))
        else:
            devices.append(
                Device(f"I{i}", DeviceKind.ISOURCE, (pick(), pick()), {"DC": rng.uniform(-1e-3, 1e-3)})
            )
    # make sure ground is referenced
    devices.append(Device("Rg", DeviceKind.RESISTOR, ("n1", "0"), {"R": 1e3}))
    all_nets = frozenset(t for d in devices for t in d.terminals)
    params: list[str] = []
    for d in devices:
        for v in d.values.values():
            if isinstance(v, Param) and v.name not in params:
                params.append(v.name)
    title = rng.choice(["", "fuzzed circuit", "a title with words"])
    return Circuit(tuple(devices), all_nets, tuple(params), title)


def test_serialize_parse_round_trip_fuzzed():
    rng = random.Random(20260814)
    for _ in range(100):
        c = _random_circuit(rng)
        text = serialize_netlist(c)
        c2 = parse_netlist(text)
        assert c2.title == c.title
        assert c2.nets == c.nets
        assert c2.params == c.params
        assert len(c2.devices) == len(c.devices)
        for d, d2 in zip(c.devices, c2.devices):
            assert d2.id == d.id
            assert d2.kind == d.kind
            assert d2.terminals == d.terminals
            assert d2.model == d.model
            assert d2.values == d.values


def test_round_trip_preserves_placeholders():
    text = "M1 d g s b NMOS W={W1} L=1e-06\nV1 d 0 DC 1.8\n.end\n"
    c = parse_netlist(text)
    assert serialize_netlist(c) == text
