"""Parse a netlist with {name} placeholders, fill them in, and solve the DC
operating point.

Run:  python3 demos/01_parse_and_simulate.py
"""

from amsizer.mosfet import DEFAULT_MODEL_CARDS
from amsizer.netlist import parse_netlist, serialize_netlist
from amsizer.simulator import Topology, solve_dc

NETLIST = """\
Single-transistor gain stage with resistive load
VDD vdd 0 DC 1.8
VIN g 0 DC 0.9
M1 d g 0 0 NMOS W={W1} L=1u
RL vdd d {RL}
.end
"""


def main() -> None:
    circuit = parse_netlist(NETLIST)
    print(f"title          : {circuit.title}")
    print(f"devices        : {', '.join(d.id for d in circuit.devices)}")
    print(f"nets           : {', '.join(sorted(circuit.nets))}")
    print(f"placeholders   : {', '.join(sorted(circuit.params))}")

    # compile the circuit once, then bind its placeholders to one point:
    # a circuit with unbound placeholders cannot be simulated yet
    point = {"W1": 3e-6, "RL": 10e3}
    system = Topology(circuit, DEFAULT_MODEL_CARDS).bind(point)
    print(f"\nbinding {point} and solving DC (Newton-Raphson on the MNA system)")

    dc = solve_dc(system)
    print(f"converged in {dc.iterations} iterations, "
          f"worst KCL residual {dc.residual_a:.2e} A\n")

    print("node voltages:")
    for net in sorted(dc.node_voltages):
        print(f"  {net:<6} {dc.node_voltages[net]:10.6f} V")

    print("\ntransistor operating points:")
    for dev, op in sorted(dc.transistor_ops.items()):
        print(f"  {dev}: region={op['region']}  vgs={op['vgs_V']:.4f} V  "
              f"vds={op['vds_V']:.4f} V  id={op['id_A']:.3e} A  "
              f"gm={op['gm_S']:.3e} S")

    power = sum(dc.source_power_w.values())
    print(f"\ntotal supply power: {power * 1e6:.1f} uW")

    # the parsed form serializes back to valid netlist text (placeholders kept)
    print("\nround-tripped netlist (original, placeholders intact):")
    print(serialize_netlist(circuit))


if __name__ == "__main__":
    main()
