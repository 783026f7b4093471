"""AC analysis of a two-stage Miller op-amp, metric extraction, and the
figure of merit that scores a sizing against its targets.

Run:  python3 demos/02_ac_metrics.py
"""

from amsizer.metrics import Spec, evaluate, extract_metrics
from amsizer.mosfet import DEFAULT_MODEL_CARDS
from amsizer.netlist import ParameterSpace, SpaceEntry, bind_parameters, parse_netlist
from amsizer.simulator import Topology, solve_ac, solve_dc

NETLIST = """\
Two-stage Miller-compensated operational amplifier
VDD vdd 0 DC 1.8
VIP inp 0 DC 0.9
VIN inn 0 DC 0.9 AC 1
IB vdd b DC 20u
M8 b b 0 0 NMOS W={W8} L={L}
M5 tail b 0 0 NMOS W={W5} L={L}
M1 d1 inp tail 0 NMOS W={W1} L={L}
M2 d2 inn tail 0 NMOS W={W2} L={L}
M3 d1 d1 vdd vdd PMOS W={W3} L={L}
M4 d2 d1 vdd vdd PMOS W={W4} L={L}
M6 out d2 vdd vdd PMOS W={W6} L={L}
M7 out b 0 0 NMOS W={W7} L={L}
CC d2 out {CC}
CL out 0 1p
.end
"""

SPACE = ParameterSpace(entries=tuple(
    SpaceEntry(n, 1e-6, 2e-4, "m", "log")
    for n in ("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8")
) + (
    SpaceEntry("L", 2e-7, 5e-6, "m", "log"),
    SpaceEntry("CC", 1e-13, 1e-11, "F", "log"),
))

POINT = {
    "W1": 8e-6, "W2": 8e-6, "W3": 1e-5, "W4": 1e-5, "W5": 6.4e-6,
    "W6": 4e-5, "W7": 1.28e-5, "W8": 3.2e-6, "L": 1e-6, "CC": 3e-12,
}

SPECS = [
    Spec("gain_db", ">=", 70.0, "hard"),
    Spec("ugbw_hz", ">=", 12e6, "hard"),
    Spec("phase_margin_deg", ">=", 60.0, "hard"),
    Spec("power_w", "<=", 3e-4, "hard"),
]


def main() -> None:
    # compile once per circuit, then bind a point checked against its ranges
    topology = Topology(parse_netlist(NETLIST), DEFAULT_MODEL_CARDS)
    system = bind_parameters(topology, SPACE, POINT)
    dc = solve_dc(system)
    print(f"DC converged in {dc.iterations} iterations; regions: "
          + ", ".join(f"{d}={op['region']}" for d, op in sorted(dc.transistor_ops.items())))

    # small-signal sweep, input at VIN, response read at 'out'
    ac = solve_ac(system, dc, "VIN", "out", f_lo=1.0, f_hi=1e9)
    print(f"AC sweep: {len(ac.freqs_hz)} points, "
          f"{ac.freqs_hz[0]:.0f} Hz .. {ac.freqs_hz[-1]:.0e} Hz")

    values = extract_metrics(ac, dc)
    print("\nextracted metrics:")
    for name in ("gain_db", "ugbw_hz", "phase_margin_deg", "power_w"):
        print(f"  {name:<18} {values[name]:.6g}")

    report = evaluate(values, SPECS)
    print("\nspec check:")
    for spec in SPECS:
        mark = "ok " if report.satisfied[spec.metric] else "MISS"
        print(f"  [{mark}] {spec.metric} {spec.direction} {spec.target:g}")
    print(f"\nfigure of merit: {report.fom:.4f}  (1.0 = every hard target met)")


if __name__ == "__main__":
    main()
