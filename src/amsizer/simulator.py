"""Circuit simulation on the modified nodal analysis formulation.

Unknown vector: voltages of all non-ground nets (sorted by name) followed
by one branch current per V source (netlist order).  The branch current
of a V source flows from its n+ terminal through the source to n-, so a
source delivering power reports a negative current, matching SPICE's
I(Vxx) convention.

A Topology compiles a circuit once; binding it to a parameter point fills
in a value vector and stamps G, C and the source vectors at precomputed
positions.  Every analysis takes that bound system (a circuit without
placeholders binds to the empty point).

DC solves run a convergence ladder: plain Newton, then Newton with gmin
shunts on every node, then source stepping; any gmin-assisted solution
is polished with a final gmin = 0 Newton pass so the reported residual
is the true KCL residual.  AC factors (G, C) at the DC operating point
once by complex QZ (Moler & Stewart 1973), then back-substitutes S + jwT
at all frequencies at once (Laub 1981), within 1e-10 relative of a 40-digit
LU where |H| >= 1e-2; transient is backward Euler with Newton per step.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import qz
from scipy.linalg.lapack import dgetrf, dgetrs

from .mosfet import MosModelCard, classify_region, mos_eval
from .netlist import _POSITIVE_SLOTS, BindingError, Circuit, DeviceKind, Param

# Fixed solver constants, read at call time.
NEWTON_TOL = 1e-9  # max |KCL residual|, amperes
DC_MAX_ITERS = 100  # Newton iterations per DC rung (per scale when source stepping)
TRAN_MAX_ITERS = 50  # Newton iterations per transient step
GMIN = 1e-12  # node shunt conductance of the gmin and source-stepping rungs, siemens
SOURCE_STEPS = 10
DV_MAX = 1.0  # per-iteration cap on any node-voltage update, volts
MIN_PTS_PER_DECADE = 20


class SimulationError(RuntimeError):
    pass


class NonConvergence(SimulationError):
    def __init__(self, residual: float, iterations: int, context: str = ""):
        self.residual = residual
        self.iterations = iterations
        where = f" during {context}" if context else ""
        super().__init__(
            f"Newton did not converge{where}: residual {residual:.3e} A "
            f"after {iterations} iterations"
        )


class SingularMatrix(SimulationError):
    def __init__(self, unknown: str):
        self.unknown = unknown
        super().__init__(f"singular MNA matrix at unknown {unknown!r}")


@dataclass(frozen=True)
class DcSolution:
    node_voltages: dict[str, float]
    branch_currents: dict[str, float]
    transistor_ops: dict[str, dict]
    source_power_w: dict[str, float] = field(default_factory=dict)
    residual_a: float = 0.0
    iterations: int = 0


@dataclass(frozen=True)
class AcSweep:
    freqs_hz: np.ndarray
    transfer: np.ndarray


@dataclass(frozen=True)
class TransientTrace:
    times_s: np.ndarray
    node_voltages: dict[str, np.ndarray]


def _pwl_value(points: list[tuple[float, float]], t: float) -> float:
    """Piecewise-linear lookup, clamped at both ends.

    A repeated time value makes an ideal step (the later entry wins at
    the exact edge).
    """
    times = [p[0] for p in points]
    i = bisect_right(times, t)
    if i == 0:
        return points[0][1]
    if i == len(points):
        return points[-1][1]
    t0, v0 = points[i - 1]
    t1, v1 = points[i]
    if t1 == t0:
        return v1
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _pair_stamps(a: int, b: int) -> list[tuple[int, int, float]]:
    """(row, column, sign) of a two-terminal conductance or capacitance
    stamp between unknowns a and b, in stamp order, ground (-1) skipped."""
    out = []
    if a >= 0:
        out.append((a, a, 1.0))
    if b >= 0:
        out.append((b, b, 1.0))
    if a >= 0 and b >= 0:
        out += [(a, b, -1.0), (b, a, -1.0)]
    return out


class _Stamps:
    """Per-point values added to a fixed base array at fixed positions, in
    stamp order: entry k adds sign[k] * v[which[k]] at flat position pos[k].
    `ufunc.at` adds in index order, so each entry gets the same sum as one
    `+=` (or `-=`) per stamp."""

    def __init__(self, base: np.ndarray, stamps: list[tuple[int, int, float]]):
        self.base = base
        self.pos = np.array([p for p, _, _ in stamps], int)
        self.which = np.array([w for _, w, _ in stamps], int)
        self.sign = np.array([g for _, _, g in stamps], float)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.base.copy()
        np.add.at(out.reshape(-1), self.pos, v[self.which] * self.sign)
        return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _source_vector(stamps, values: np.ndarray) -> np.ndarray:
    v_rows, v_pos, i_stamps = stamps
    b = i_stamps.apply(values)
    b[v_rows] = values[v_pos]
    return b


class Topology:
    """A circuit compiled once for many parameter points, as SPICE3-family
    simulators do (Quarles 1989): every net and V source resolved to its
    MNA unknown, every device value to a constant or a placeholder, and
    every matrix stamp to its position.  `bind` fills in one point's
    values; netlist.bind_parameters checks the point against its ranges
    first."""

    def __init__(self, circuit: Circuit, models: dict[str, MosModelCard]):
        self.circuit, self.models = circuit, models
        self.params = circuit.params
        self.devices = {d.id: d for d in circuit.devices}
        nets = sorted(circuit.nets - {"0"})
        idx = self.node_index = {n: i for i, n in enumerate(nets)}
        idx["0"] = -1
        self.n_nodes = len(nets)
        self.vsources = [d for d in circuit.devices if d.kind is DeviceKind.VSOURCE]
        self.isources = [d for d in circuit.devices if d.kind is DeviceKind.ISOURCE]
        n = self.n_unknowns = self.n_nodes + len(self.vsources)
        self.labels = list(nets) + [f"I({v.id})" for v in self.vsources]

        # one value-vector position per device value: a constant, or a
        # placeholder that bind() fills in
        self.slots: dict[tuple[str, str], int] = {}
        consts, self._param_pos, self._param_names = [], [], []
        for d in circuit.devices:
            for slot, v in d.values.items():
                self.slots[d.id, slot] = len(consts)
                if isinstance(v, Param):
                    self._param_pos.append(len(consts))
                    self._param_names.append(v.name)
                    v = 0.0
                consts.append(v)
        self._consts = np.array(consts, float)
        self._param_pos = np.array(self._param_pos, int)
        # every R, C, W and L, placeholder or constant: bind() checks it is
        # positive
        self._positive = [key for key in self.slots if key[1] in _POSITIVE_SLOTS]
        self._positive_pos = np.array([self.slots[key] for key in self._positive], int)

        # MOSFETs: (device, card, d, g, s) with -1 for ground
        self.mosfets = []
        for d in circuit.devices:
            if d.kind is not DeviceKind.MOSFET:
                continue
            card = models.get(d.model or "")
            if card is None:
                raise SimulationError(f"no model card named {d.model!r} for device {d.id}")
            self.mosfets.append((d, card, *(idx[t] for t in d.terminals[:3])))
        self._w_pos = np.array([self.slots[d.id, "W"] for d, *_ in self.mosfets], int)
        self._l_pos = np.array([self.slots[d.id, "L"] for d, *_ in self.mosfets], int)
        self._cox = np.array([card.cox_area for _, card, *_ in self.mosfets], float)

        # G0: each V source's incidence entries, then resistor conductances
        g_base = np.zeros((n, n))
        for k, v in enumerate(self.vsources):
            row = self.n_nodes + k
            for t, sign in ((v.terminals[0], 1.0), (v.terminals[1], -1.0)):
                if idx[t] >= 0:
                    g_base[row, idx[t]] += sign
                    g_base[idx[t], row] += sign
        resistors = [d for d in circuit.devices if d.kind is DeviceKind.RESISTOR]
        self._r_pos = np.array([self.slots[d.id, "R"] for d in resistors], int)
        self._g0 = _Stamps(g_base, [
            (row * n + col, k, sign)
            for k, d in enumerate(resistors)
            for row, col, sign in _pair_stamps(idx[d.terminals[0]], idx[d.terminals[1]])
        ])
        # C: explicit caps (in netlist order), then each MOSFET's Cgs
        caps = [d for d in circuit.devices if d.kind is DeviceKind.CAPACITOR]
        self._c_pos = np.array([self.slots[d.id, "C"] for d in caps], int)
        pairs = [(idx[d.terminals[0]], idx[d.terminals[1]]) for d in caps]
        pairs += [(gi, si) for _, _, _, gi, si in self.mosfets]
        self._c = _Stamps(np.zeros((n, n)), [
            (row * n + col, k, sign)
            for k, (a, b) in enumerate(pairs)
            for row, col, sign in _pair_stamps(a, b)
        ])
        # per source slot ("DC" or "AC"): V-source rows and value positions,
        # then each I source's (row, value position, sign) in stamp order
        self._sources = {}
        for slot in ("DC", "AC"):
            v_rows = [self.n_nodes + k for k, v in enumerate(self.vsources) if slot in v.values]
            v_pos = [self.slots[v.id, slot] for v in self.vsources if slot in v.values]
            i_stamps = [
                (row, self.slots[s.id, slot], sign)
                for s in self.isources if slot in s.values
                for row, sign in ((idx[s.terminals[0]], -1.0), (idx[s.terminals[1]], 1.0))
                if row >= 0
            ]
            self._sources[slot] = (np.array(v_rows, int), np.array(v_pos, int),
                                   _Stamps(np.zeros(n), i_stamps))
        # G0 and b_dc fed by constants only are assembled here, once, and
        # shared read-only by every bound point
        fixed = set(self._param_pos.tolist()).isdisjoint
        self._g0_fixed = self._b_dc_fixed = None
        # (a constant R <= 0 never binds, so no G0 is assembled from it)
        if fixed(self._r_pos.tolist()) and (self._consts[self._r_pos] > 0.0).all():
            self._g0_fixed = _read_only(self._g0.apply(1.0 / self._consts[self._r_pos]))
        v_rows, v_pos, i_stamps = self._sources["DC"]
        if fixed(v_pos.tolist()) and fixed(i_stamps.which.tolist()):
            self._b_dc_fixed = _read_only(_source_vector(self._sources["DC"], self._consts))

        # flat node diagonals (row * n + col) for the gmin shunt
        self._diag = slice(0, self.n_nodes * (n + 1), n + 1)
        # each MOSFET stamp entry in stamp order, ground skipped: its flat
        # Jacobian position or residual row, and which of the device's
        # values (i_d, -i_d, gm, gds, -(gm + gds), -gm, -gds, gm + gds) it adds
        jac_pos, jac_val, res_rows, res_val = [], [], [], []
        for k, (_, _, di, gi, si) in enumerate(self.mosfets):
            for row, col, which in ((di, gi, 2), (di, di, 3), (di, si, 4),
                                    (si, gi, 5), (si, di, 6), (si, si, 7)):
                if row >= 0 and col >= 0:
                    jac_pos.append(row * n + col)
                    jac_val.append(8 * k + which)
            for row, which in ((di, 0), (si, 1)):
                if row >= 0:
                    res_rows.append(row)
                    res_val.append(8 * k + which)
        self._jac_pos, self._jac_val = np.array(jac_pos, int), np.array(jac_val, int)
        self._res_rows, self._res_val = np.array(res_rows, int), np.array(res_val, int)

    def bind(self, point: dict[str, float]) -> _Compiled:
        """The MNA system at `point`'s placeholder values, unchecked
        against any range (see netlist.bind_parameters).  Raises
        BindingError unless every R, C, W and L value is positive."""
        values = self._consts.copy()
        if self._param_names:
            try:
                values[self._param_pos] = [point[name] for name in self._param_names]
            except KeyError:
                unbound = [name for name in self.params if name not in point]
                raise BindingError(
                    f"circuit has unbound placeholders {unbound}; bind a parameter point first"
                ) from None
        positive = values[self._positive_pos] > 0.0  # False for NaN too
        if not positive.all():
            dev_id, slot = self._positive[int(np.argmin(positive))]
            value = values[self.slots[dev_id, slot]]
            raise BindingError(f"{dev_id}: {slot} = {value:g} must be strictly positive")
        return _Compiled(self, values)


class _Compiled:
    """A Topology bound to one point's values: its MNA matrices and the
    Newton solver over them.

    The MOSFET values and the assembled residual and Jacobian are kept
    for the last iterate (under its exact bytes), since the DC ladder,
    the AC linearisation and each transient step's first Newton iterate
    start where the previous solve stopped.  Only bit-identical inputs
    reuse a result, so every output is what evaluating again gives."""

    def __init__(self, topology: Topology, values: np.ndarray):
        t = self.topology = topology
        self.values = values
        w, l = values[t._w_pos], values[t._l_pos]
        # mos_eval's device constants: (polarity, beta, vth, lambda, d, g, s)
        self._mos = [
            (card.polarity, card.kprime * wk / lk, card.vth, card.lam, di, gi, si)
            for (_, card, di, gi, si), wk, lk in zip(t.mosfets, w.tolist(), l.tolist())
        ]
        self._device_key = self._assembly_key = None
        self.g0 = t._g0_fixed if t._g0_fixed is not None else t._g0.apply(1.0 / values[t._r_pos])
        # DC right-hand side (F = G x - b + mos terms)
        self.b_dc = t._b_dc_fixed if t._b_dc_fixed is not None else self.source_vector("DC")
        # Cgs = 2/3 W L Cox, stamped only where positive
        cgs = (2.0 / 3.0) * w * l * t._cox
        self.c_mat = t._c.apply(np.concatenate((values[t._c_pos], np.where(cgs > 0.0, cgs, 0.0))))

    def value(self, dev_id: str, slot: str) -> float:
        """The bound value of device `dev_id`'s `slot`."""
        return float(self.values[self.topology.slots[dev_id, slot]])

    def source_vector(self, slot: str) -> np.ndarray:
        """Right-hand side of every independent source's `slot` value
        ("DC" or "AC"); sources without that slot contribute nothing."""
        return _source_vector(self.topology._sources[slot], self.values)

    # -- nonlinear assembly ------------------------------------------------

    def residual_and_jacobian(
        self, x: np.ndarray, b: np.ndarray, gmin: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read-only KCL residual and Jacobian at x, before any
        backward-Euler term."""
        key = (x.tobytes(), b.tobytes(), gmin)
        if key != self._assembly_key:
            j = self.g0.copy()
            if gmin > 0.0:
                j.reshape(-1)[self.topology._diag] += gmin
            f = j @ x - b
            self.stamp_mosfets(x, j, f)
            self._assembly_key, self._assembly = key, (_read_only(f), _read_only(j))
        return self._assembly

    def _device_values(self, x: np.ndarray) -> np.ndarray:
        """Read-only (i_d, -i_d, gm, gds, -(gm + gds), -gm, -gds, gm + gds)
        of every MOSFET at x, eight entries per device in order."""
        key = x.tobytes()
        if key != self._device_key:
            v = x.tolist()
            v.append(0.0)  # index -1 reads ground
            vals = []
            for pol, beta, vth, lam, di, gi, si in self._mos:
                i_d, gm, gds = mos_eval(pol, beta, vth, lam, v[gi], v[di], v[si])
                gs = gm + gds
                vals += (i_d, -i_d, gm, gds, -gs, -gm, -gds, gs)
            self._device_key, self._device_vals = key, _read_only(np.array(vals))
        return self._device_vals

    def stamp_mosfets(self, x: np.ndarray, mat: np.ndarray, f: np.ndarray | None = None):
        """Add every MOSFET's conductances (gm, gds) at x to the C-contiguous
        `mat` and, when `f` is given, its drain current to the KCL residual.
        `ufunc.at` adds in index order, so each entry gets the same sum as
        one `+=` per stamp entry."""
        t, vals = self.topology, self._device_values(x)
        np.add.at(mat.reshape(-1), t._jac_pos, vals[t._jac_val])
        if f is not None:
            np.add.at(f, t._res_rows, vals[t._res_val])

    def _solve_linear(self, j: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # the LAPACK routines behind scipy.linalg.lu_factor / lu_solve; an
        # exactly singular pivot (info > 0) is caught by the check below,
        # as is an all-zero or non-finite diagonal (it names labels[0])
        lu, piv, _ = dgetrf(j)
        diag = np.abs(lu.diagonal())
        floor = diag.max() * 1e-14
        if not diag.min() > floor:
            raise SingularMatrix(self.topology.labels[int(np.argmax(diag <= floor))])
        dx, _ = dgetrs(lu, piv, rhs)
        if not np.isfinite(dx).all():
            raise SingularMatrix(self.topology.labels[0])
        return dx

    def newton(
        self,
        x0: np.ndarray,
        b: np.ndarray,
        gmin: float = 0.0,
        max_iters: int | None = None,
        c_over_dt: np.ndarray | None = None,
        x_prev: np.ndarray | None = None,
        context: str = "",
    ) -> tuple[np.ndarray, int, float]:
        """Damped Newton-Raphson on right-hand side `b` (plus the backward
        Euler term when `c_over_dt` is given); returns (x, iterations,
        residual).  `max_iters` defaults to DC_MAX_ITERS."""
        if max_iters is None:
            max_iters = DC_MAX_ITERS
        n_nodes = self.topology.n_nodes
        x = x0.copy()
        residual = float("inf")
        for it in range(max_iters):
            f, j = self.residual_and_jacobian(x, b, gmin)
            if c_over_dt is not None:
                f = f + c_over_dt @ (x - x_prev)
                j = j + c_over_dt
            residual = float(np.abs(f).max())
            if residual <= NEWTON_TOL:
                return x, it, residual
            dx = self._solve_linear(j, -f)
            nodes = dx[:n_nodes]
            np.minimum(nodes, DV_MAX, out=nodes)
            np.maximum(nodes, -DV_MAX, out=nodes)
            x += dx
        raise NonConvergence(residual, max_iters, context)


def _linearisation_point(comp: _Compiled, dc: DcSolution) -> np.ndarray:
    """The DC solution vector of bound system `comp`."""
    t = comp.topology
    x = np.zeros(t.n_unknowns)
    for net, i in t.node_index.items():
        if i >= 0:
            x[i] = dc.node_voltages[net]
    for k, v in enumerate(t.vsources):
        x[t.n_nodes + k] = dc.branch_currents[v.id]
    return x


def solve_dc(system: _Compiled) -> DcSolution:
    """DC operating point via the Newton convergence ladder.

    `system` is a Topology bound to a point: `Topology(circuit,
    models).bind(point)` or netlist.bind_parameters."""
    zeros = np.zeros(system.topology.n_unknowns)
    last_error: NonConvergence | SingularMatrix | None = None

    def polished(x: np.ndarray, iters: int, residual: float):
        # drop the gmin shunts for a true-KCL solution; nodes held up only
        # by gmin (e.g. capacitor-only nets) keep the shunted solution,
        # whose device-KCL error is bounded by GMIN * |v| << NEWTON_TOL
        try:
            x2, it2, res2 = system.newton(x, system.b_dc, context="gmin polish")
            return x2, iters + it2, res2
        except (NonConvergence, SingularMatrix):
            return x, iters, residual

    # Plain Newton from x = 0 rarely converges on a transistor circuit
    # (the bias net's Jacobian row is singular there), but on a linear
    # circuit it returns the exact solution in one step, whereas the
    # gmin rung's polish accepts a shunted answer off by ~gmin * |v|.
    def plain():
        return system.newton(zeros, system.b_dc, context="plain Newton")

    def with_gmin():
        x, iters, residual = system.newton(zeros, system.b_dc, gmin=GMIN, context="gmin Newton")
        return polished(x, iters, residual)

    def source_stepping():
        x, total = zeros, 0
        for scale in np.linspace(1.0 / SOURCE_STEPS, 1.0, SOURCE_STEPS):
            x, iters, residual = system.newton(
                x, scale * system.b_dc, gmin=GMIN,
                context=f"source stepping at scale {scale:.2f}",
            )
            total += iters
        return polished(x, total, residual)

    attempts = [plain, with_gmin, source_stepping]
    for attempt in attempts:
        try:
            x, iters, residual = attempt()
        except (NonConvergence, SingularMatrix) as exc:
            last_error = exc
            continue
        # a kept error's traceback holds this frame: drop it to break the cycle
        last_error = None
        return _finish_dc(system, x, iters, residual)
    assert last_error is not None
    try:
        raise last_error
    finally:
        last_error = None


def _finish_dc(comp: _Compiled, x: np.ndarray, iters: int, residual: float) -> DcSolution:
    t = comp.topology
    volts = x.tolist()
    volts.append(0.0)  # index -1 reads ground, as in _device_values
    node_voltages = {"0": 0.0}
    for net, i in t.node_index.items():
        if i >= 0:
            node_voltages[net] = volts[i]
    branch_currents = {
        v.id: volts[t.n_nodes + k] for k, v in enumerate(t.vsources)
    }
    ops = {}
    device_values = comp._device_values(x).tolist()
    for k, (dev, card, di, gi, si) in enumerate(t.mosfets):
        vg, vd, vs = volts[gi], volts[di], volts[si]
        i_d, _, gm, gds = device_values[8 * k: 8 * k + 4]
        pol = card.polarity
        vgs_n = pol * (vg - vs)
        vds_n = pol * (vd - vs)
        if vds_n >= 0.0:
            region = classify_region(vgs_n, vds_n, card.vth)
        else:
            # reverse conduction: classify in the swapped (forward) frame
            region = classify_region(vgs_n - vds_n, -vds_n, card.vth)
        ops[dev.id] = {
            "id_A": float(i_d),
            "vgs_V": float(vgs_n),
            "vds_V": float(vds_n),
            "gm_S": float(gm),
            "gds_S": float(gds),
            "region": region,
        }
    power = {}
    for k, v in enumerate(t.vsources):
        dv = volts[t.node_index[v.terminals[0]]] - volts[t.node_index[v.terminals[1]]]
        power[v.id] = abs(dv * volts[t.n_nodes + k])
    for s in t.isources:
        dv = volts[t.node_index[s.terminals[0]]] - volts[t.node_index[s.terminals[1]]]
        power[s.id] = abs(dv * comp.value(s.id, "DC"))
    return DcSolution(
        node_voltages=node_voltages,
        branch_currents=branch_currents,
        transistor_ops=ops,
        source_power_w=power,
        residual_a=residual,
        iterations=iters,
    )


@lru_cache(maxsize=32)
def frequency_grid(f_lo: float, f_hi: float, pts_per_decade: int = MIN_PTS_PER_DECADE) -> np.ndarray:
    """Cached, read-only geometric grid with at least MIN_PTS_PER_DECADE points per decade."""
    if f_lo <= 0 or f_hi <= 0:
        raise ValueError("frequencies must be > 0")
    if f_lo > f_hi:
        raise ValueError("f_lo must be <= f_hi")
    ppd = max(pts_per_decade, MIN_PTS_PER_DECADE)
    decades = np.log10(f_hi / f_lo)  # 0 when f_lo == f_hi: the one point f_lo
    grid = np.geomspace(f_lo, f_hi, int(np.ceil(decades * ppd)) + 1)
    grid.flags.writeable = False
    return grid


def solve_ac(
    system: _Compiled,
    dc: DcSolution,
    input_source: str,
    output_net: str,
    f_lo: float,
    f_hi: float,
    pts_per_decade: int = MIN_PTS_PER_DECADE,
) -> AcSweep:
    """Small-signal transfer V(output_net)/AC(input_source) on a log grid,
    linearised at bound system `system`'s DC solution `dc`."""
    topo = system.topology
    x_dc = _linearisation_point(system, dc)
    if output_net not in topo.node_index:
        raise SimulationError(f"unknown output net {output_net!r}")
    src = topo.devices.get(input_source)
    if src is None:
        raise SimulationError(f"unknown input source {input_source!r}")
    if src.kind not in (DeviceKind.VSOURCE, DeviceKind.ISOURCE):
        raise SimulationError(f"{input_source!r} is not an independent source")

    freqs = frequency_grid(f_lo, f_hi, pts_per_decade)
    jw = 2j * np.pi * freqs
    n = topo.n_unknowns
    g = system.g0.copy()
    system.stamp_mosfets(x_dc, g)
    s, t, q, z = qz(g, system.c_mat, output="complex")
    diag = s.diagonal()[:, None] + t.diagonal()[:, None] * jw
    if not diag.all():
        raise SingularMatrix("AC system")
    # solve (S + jwT) y = Q^H b by columns, one (k, 2) @ (2, f) product each (a row
    # would be one matrix-vector product, big enough to wake BLAS threads); acc row 0
    # accumulates V(out) = Z[out] y, and row k + 1 holds unknown k
    coef = np.zeros((n + 1, n, 2), complex)
    coef[0, :, 0], coef[1:, :, 0], coef[1:, :, 1] = -z[topo.node_index[output_net]], s, t
    acc = np.zeros((n + 1, len(freqs)), complex)
    acc[1:] = (q.conj().T @ system.source_vector("AC"))[:, None]
    u = np.empty((2, len(freqs)), complex)  # y_i and jw * y_i
    for i in range(n - 1, -1, -1):
        np.divide(acc[i + 1], diag[i], out=u[0])
        np.multiply(jw, u[0], out=u[1])
        acc[: i + 1] -= coef[: i + 1, i] @ u
    vout = acc[0]
    if not np.isfinite(vout).all():
        raise SingularMatrix("AC system")
    ac_in = system.value(input_source, "AC") if "AC" in src.values else 1.0
    if ac_in != 0.0:
        transfer = vout / ac_in
    else:
        transfer = vout
    return AcSweep(freqs_hz=freqs, transfer=transfer)


def solve_transient(
    system: _Compiled,
    dc: DcSolution,
    stimulus: dict[str, list[tuple[float, float]]],
    t_stop: float,
    dt: float,
) -> TransientTrace:
    """Backward-Euler transient of bound system `system` from its DC
    solution `dc`.

    `stimulus` overrides the DC value of named sources with a
    piecewise-linear waveform [(t, value), ...]; unnamed sources hold
    their DC value.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_stop < dt:
        raise ValueError("t_stop must be >= dt")
    topo = system.topology
    x = _linearisation_point(system, dc)
    # (points, vsource row | None, isource (p, m, dc) | None) per driven source
    drives = []
    for sid, points in stimulus.items():
        dev = topo.devices.get(sid)
        if dev is not None and dev.kind is DeviceKind.VSOURCE:
            drives.append((points, topo.labels.index(f"I({sid})"), None))
        elif dev is not None and dev.kind is DeviceKind.ISOURCE:
            p = topo.node_index[dev.terminals[0]]
            m = topo.node_index[dev.terminals[1]]
            drives.append((points, None, (p, m, system.value(sid, "DC"))))
        else:
            raise SimulationError(f"stimulus target {sid!r} is not an independent source")

    n_steps = int(round(t_stop / dt))
    times = np.arange(n_steps + 1) * dt
    # from the last breakpoint on, b(t) is constant, so it is built no more,
    # and a step that needs no Newton update then repeats exactly: the
    # waveform has settled
    settle_t = max((points[-1][0] for points, _, _ in drives), default=0.0)
    c_over_dt = system.c_mat / dt
    history = np.empty((n_steps + 1, topo.n_unknowns))
    history[0] = x
    b_settled = False
    for k in range(1, n_steps + 1):
        t = k * dt
        if not b_settled:
            b = system.b_dc.copy()
            for points, vrow, isrc in drives:
                val = _pwl_value(points, t)
                if vrow is not None:
                    b[vrow] = val
                else:
                    p, m, base = isrc
                    if p >= 0:
                        b[p] += base - val
                    if m >= 0:
                        b[m] -= base - val
            b_settled = t >= settle_t
        try:
            x, iters, _ = system.newton(
                x, b, max_iters=TRAN_MAX_ITERS, c_over_dt=c_over_dt, x_prev=history[k - 1]
            )
        except NonConvergence as exc:
            # the step's context is formatted only for the error
            raise NonConvergence(
                exc.residual, exc.iterations, f"transient step {k} (t = {t:.6g} s)"
            ) from None
        if iters == 0 and b_settled:
            history[k:] = x
            break
        history[k] = x

    voltages = {"0": np.zeros(n_steps + 1)}
    for net, i in topo.node_index.items():
        if i >= 0:
            voltages[net] = history[:, i].copy()
    return TransientTrace(times_s=times, node_voltages=voltages)
