"""Circuit simulation on the modified nodal analysis formulation.

Unknown vector: voltages of all non-ground nets (sorted by name) followed
by one branch current per V source (netlist order).  The branch current
of a V source flows from its n+ terminal through the source to n-, so a
source delivering power reports a negative current, matching SPICE's
I(Vxx) convention.

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

from .mosfet import MosModelCard, classify_region, mos_current
from .netlist import BindingError, Circuit, DeviceKind

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
    compiled: _Compiled | None = field(default=None, repr=False, compare=False)


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


class _Compiled:
    """Index-resolved form of a numeric circuit for fast MNA assembly."""

    def __init__(self, circuit: Circuit, models: dict[str, MosModelCard]):
        unbound = circuit.params
        if unbound:
            raise BindingError(
                f"circuit has unbound placeholders {list(unbound)}; bind a parameter point first"
            )
        self.circuit = circuit
        nets = sorted(circuit.nets - {"0"})
        self.node_index = {n: i for i, n in enumerate(nets)}
        self.node_index["0"] = -1
        self.n_nodes = len(nets)
        self.vsources = [d for d in circuit.devices if d.kind is DeviceKind.VSOURCE]
        self.isources = [d for d in circuit.devices if d.kind is DeviceKind.ISOURCE]
        self.n_unknowns = self.n_nodes + len(self.vsources)
        self.labels = list(nets) + [f"I({v.id})" for v in self.vsources]

        # MOSFETs: (device, card, W, L, d, g, s) with -1 for ground
        self.mosfets = []
        for d in circuit.devices:
            if d.kind is not DeviceKind.MOSFET:
                continue
            card = models.get(d.model or "")
            if card is None:
                raise SimulationError(f"no model card named {d.model!r} for device {d.id}")
            idx = self.node_index
            self.mosfets.append(
                (
                    d,
                    card,
                    d.value("W"),
                    d.value("L"),
                    idx[d.terminals[0]],
                    idx[d.terminals[1]],
                    idx[d.terminals[2]],
                )
            )

        n = self.n_unknowns
        g0 = np.zeros((n, n))
        for d in circuit.devices:
            if d.kind is DeviceKind.RESISTOR:
                self._stamp_pair(g0, self.node_index[d.terminals[0]],
                                 self.node_index[d.terminals[1]], 1.0 / d.value("R"))
        for k, v in enumerate(self.vsources):
            row = self.n_nodes + k
            p = self.node_index[v.terminals[0]]
            m = self.node_index[v.terminals[1]]
            if p >= 0:
                g0[row, p] += 1.0
                g0[p, row] += 1.0
            if m >= 0:
                g0[row, m] -= 1.0
                g0[m, row] -= 1.0
        self.g0 = g0

        # DC right-hand side (F = G x - b + mos terms)
        self.b_dc = self.source_vector("DC")

        # capacitance matrix: explicit caps plus each MOSFET's Cgs
        c = np.zeros((n, n))
        for d in circuit.devices:
            if d.kind is DeviceKind.CAPACITOR:
                self._stamp_pair(c, self.node_index[d.terminals[0]],
                                 self.node_index[d.terminals[1]], d.value("C"))
        for _, card, w, l, _, gi, si in self.mosfets:
            cgs = (2.0 / 3.0) * w * l * card.cox_area
            if cgs > 0.0:
                self._stamp_pair(c, gi, si, cgs)
        self.c_mat = c

        # flat node diagonals (row * n + col) for the gmin shunt
        self._diag = slice(0, self.n_nodes * (n + 1), n + 1)
        # each MOSFET stamp entry in stamp order, ground skipped: its flat
        # Jacobian position or residual row, and which of the device's
        # values (i_d, -i_d, gm, gds, -(gm + gds), -gm, -gds, gm + gds) it adds
        jac_pos, jac_val, res_rows, res_val = [], [], [], []
        for k, (_, _, _, _, di, gi, si) in enumerate(self.mosfets):
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

    @staticmethod
    def _stamp_pair(mat: np.ndarray, a: int, b: int, val: float):
        if a >= 0:
            mat[a, a] += val
        if b >= 0:
            mat[b, b] += val
        if a >= 0 and b >= 0:
            mat[a, b] -= val
            mat[b, a] -= val

    def source_vector(self, slot: str) -> np.ndarray:
        """Right-hand side of every independent source's `slot` value
        ("DC" or "AC"); sources without that slot contribute nothing."""
        b = np.zeros(self.n_unknowns)
        for k, v in enumerate(self.vsources):
            if slot in v.values:
                b[self.n_nodes + k] = v.value(slot)
        for s in self.isources:
            if slot in s.values:
                p = self.node_index[s.terminals[0]]
                m = self.node_index[s.terminals[1]]
                i = s.value(slot)
                if p >= 0:
                    b[p] -= i
                if m >= 0:
                    b[m] += i
        return b

    # -- nonlinear assembly ------------------------------------------------

    def residual_and_jacobian(
        self, x: np.ndarray, b: np.ndarray, gmin: float
    ) -> tuple[np.ndarray, np.ndarray]:
        j = self.g0.copy()
        if gmin > 0.0:
            j.reshape(-1)[self._diag] += gmin
        f = j @ x - b
        self.stamp_mosfets(x, j, f)
        return f, j

    def stamp_mosfets(self, x: np.ndarray, mat: np.ndarray, f: np.ndarray | None = None):
        """Add every MOSFET's conductances (gm, gds) at x to the C-contiguous
        `mat` and, when `f` is given, its drain current to the KCL residual.
        `ufunc.at` adds in index order, so each entry gets the same sum as
        one `+=` per stamp entry."""
        v = x.tolist()
        v.append(0.0)  # index -1 reads ground
        vals = []
        for _, card, w, l, di, gi, si in self.mosfets:
            i_d, gm, gds = mos_current(card, w, l, v[gi], v[di], v[si])
            gs = gm + gds
            vals += (i_d, -i_d, gm, gds, -gs, -gm, -gds, gs)
        vals = np.array(vals)
        np.add.at(mat.reshape(-1), self._jac_pos, vals[self._jac_val])
        if f is not None:
            np.add.at(f, self._res_rows, vals[self._res_val])

    def _solve_linear(self, j: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # the LAPACK routines behind scipy.linalg.lu_factor / lu_solve; an
        # exactly singular pivot (info > 0) is caught by the check below,
        # as is an all-zero or non-finite diagonal (it names labels[0])
        lu, piv, _ = dgetrf(j)
        diag = np.abs(lu.diagonal())
        floor = diag.max() * 1e-14
        if not diag.min() > floor:
            raise SingularMatrix(self.labels[int(np.argmax(diag <= floor))])
        dx, _ = dgetrs(lu, piv, rhs)
        if not np.isfinite(dx).all():
            raise SingularMatrix(self.labels[0])
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
        x = x0.copy()
        residual = float("inf")
        for it in range(max_iters):
            f, j = self.residual_and_jacobian(x, b, gmin)
            if c_over_dt is not None:
                f += c_over_dt @ (x - x_prev)
                j += c_over_dt
            residual = float(np.abs(f).max())
            if residual <= NEWTON_TOL:
                return x, it, residual
            dx = self._solve_linear(j, -f)
            nodes = dx[: self.n_nodes]
            np.minimum(nodes, DV_MAX, out=nodes)
            np.maximum(nodes, -DV_MAX, out=nodes)
            x += dx
        raise NonConvergence(residual, max_iters, context)


def _linearisation_point(circuit: Circuit, models: dict[str, MosModelCard], dc: DcSolution):
    """solve_dc's compiled circuit (fresh if `dc` is another circuit's) and DC vector."""
    comp = dc.compiled
    if comp is None or comp.circuit is not circuit:
        comp = _Compiled(circuit, models)
    x = np.zeros(comp.n_unknowns)
    for net, i in comp.node_index.items():
        if i >= 0:
            x[i] = dc.node_voltages[net]
    for k, v in enumerate(comp.vsources):
        x[comp.n_nodes + k] = dc.branch_currents[v.id]
    return comp, x


def solve_dc(circuit: Circuit, models: dict[str, MosModelCard]) -> DcSolution:
    """DC operating point via the Newton convergence ladder."""
    comp = _Compiled(circuit, models)
    zeros = np.zeros(comp.n_unknowns)
    last_error: NonConvergence | SingularMatrix | None = None

    def polished(x: np.ndarray, iters: int, residual: float):
        # drop the gmin shunts for a true-KCL solution; nodes held up only
        # by gmin (e.g. capacitor-only nets) keep the shunted solution,
        # whose device-KCL error is bounded by GMIN * |v| << NEWTON_TOL
        try:
            x2, it2, res2 = comp.newton(x, comp.b_dc, context="gmin polish")
            return x2, iters + it2, res2
        except (NonConvergence, SingularMatrix):
            return x, iters, residual

    # Plain Newton from x = 0 rarely converges on a transistor circuit
    # (the bias net's Jacobian row is singular there), but on a linear
    # circuit it returns the exact solution in one step, whereas the
    # gmin rung's polish accepts a shunted answer off by ~gmin * |v|.
    def plain():
        return comp.newton(zeros, comp.b_dc, context="plain Newton")

    def with_gmin():
        x, iters, residual = comp.newton(zeros, comp.b_dc, gmin=GMIN, context="gmin Newton")
        return polished(x, iters, residual)

    def source_stepping():
        x, total = zeros, 0
        for scale in np.linspace(1.0 / SOURCE_STEPS, 1.0, SOURCE_STEPS):
            x, iters, residual = comp.newton(
                x, scale * comp.b_dc, gmin=GMIN,
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
        return _finish_dc(comp, x, iters, residual)
    assert last_error is not None
    try:
        raise last_error
    finally:
        last_error = None


def _finish_dc(comp: _Compiled, x: np.ndarray, iters: int, residual: float) -> DcSolution:
    volts = x.tolist()
    volts.append(0.0)  # index -1 reads ground, as in stamp_mosfets
    node_voltages = {"0": 0.0}
    for net, i in comp.node_index.items():
        if i >= 0:
            node_voltages[net] = volts[i]
    branch_currents = {
        v.id: volts[comp.n_nodes + k] for k, v in enumerate(comp.vsources)
    }
    ops = {}
    for dev, card, w, l, di, gi, si in comp.mosfets:
        vg, vd, vs = volts[gi], volts[di], volts[si]
        i_d, gm, gds = mos_current(card, w, l, vg, vd, vs)
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
    for k, v in enumerate(comp.vsources):
        dv = volts[comp.node_index[v.terminals[0]]] - volts[comp.node_index[v.terminals[1]]]
        power[v.id] = abs(dv * volts[comp.n_nodes + k])
    for s in comp.isources:
        dv = volts[comp.node_index[s.terminals[0]]] - volts[comp.node_index[s.terminals[1]]]
        power[s.id] = abs(dv * s.value("DC"))
    return DcSolution(
        node_voltages=node_voltages,
        branch_currents=branch_currents,
        transistor_ops=ops,
        source_power_w=power,
        residual_a=residual,
        iterations=iters,
        compiled=comp,
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
    circuit: Circuit,
    models: dict[str, MosModelCard],
    dc: DcSolution,
    input_source: str,
    output_net: str,
    f_lo: float,
    f_hi: float,
    pts_per_decade: int = MIN_PTS_PER_DECADE,
) -> AcSweep:
    """Small-signal transfer V(output_net)/AC(input_source) on a log grid."""
    comp, x_dc = _linearisation_point(circuit, models, dc)
    if output_net not in comp.node_index:
        raise SimulationError(f"unknown output net {output_net!r}")
    try:
        src = circuit.device(input_source)
    except KeyError:
        raise SimulationError(f"unknown input source {input_source!r}") from None
    if src.kind not in (DeviceKind.VSOURCE, DeviceKind.ISOURCE):
        raise SimulationError(f"{input_source!r} is not an independent source")

    freqs = frequency_grid(f_lo, f_hi, pts_per_decade)
    jw = 2j * np.pi * freqs
    n = comp.n_unknowns
    g = comp.g0.copy()
    comp.stamp_mosfets(x_dc, g)
    s, t, q, z = qz(g, comp.c_mat, output="complex")
    diag = s.diagonal()[:, None] + t.diagonal()[:, None] * jw
    if not diag.all():
        raise SingularMatrix("AC system")
    # solve (S + jwT) y = Q^H b by columns, one (k, 2) @ (2, f) product each (a row
    # would be one matrix-vector product, big enough to wake BLAS threads); acc row 0
    # accumulates V(out) = Z[out] y, and row k + 1 holds unknown k
    coef = np.zeros((n + 1, n, 2), complex)
    coef[0, :, 0], coef[1:, :, 0], coef[1:, :, 1] = -z[comp.node_index[output_net]], s, t
    acc = np.zeros((n + 1, len(freqs)), complex)
    acc[1:] = (q.conj().T @ comp.source_vector("AC"))[:, None]
    u = np.empty((2, len(freqs)), complex)  # y_i and jw * y_i
    for i in range(n - 1, -1, -1):
        np.divide(acc[i + 1], diag[i], out=u[0])
        np.multiply(jw, u[0], out=u[1])
        acc[: i + 1] -= coef[: i + 1, i] @ u
    vout = acc[0]
    if not np.isfinite(vout).all():
        raise SingularMatrix("AC system")
    ac_in = src.values.get("AC", 1.0)
    if isinstance(ac_in, float) and ac_in != 0.0:
        transfer = vout / ac_in
    else:
        transfer = vout
    return AcSweep(freqs_hz=freqs, transfer=transfer)


def solve_transient(
    circuit: Circuit,
    models: dict[str, MosModelCard],
    dc: DcSolution,
    stimulus: dict[str, list[tuple[float, float]]],
    t_stop: float,
    dt: float,
) -> TransientTrace:
    """Backward-Euler transient from the DC solution.

    `stimulus` overrides the DC value of named sources with a
    piecewise-linear waveform [(t, value), ...]; unnamed sources hold
    their DC value.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_stop < dt:
        raise ValueError("t_stop must be >= dt")
    comp, x = _linearisation_point(circuit, models, dc)
    # (points, vsource row | None, isource (p, m, dc) | None) per driven source
    drives = []
    for sid, points in stimulus.items():
        try:
            dev = circuit.device(sid)
        except KeyError:
            dev = None
        if dev is not None and dev.kind is DeviceKind.VSOURCE:
            drives.append((points, comp.labels.index(f"I({sid})"), None))
        elif dev is not None and dev.kind is DeviceKind.ISOURCE:
            p = comp.node_index[dev.terminals[0]]
            m = comp.node_index[dev.terminals[1]]
            drives.append((points, None, (p, m, dev.value("DC"))))
        else:
            raise SimulationError(f"stimulus target {sid!r} is not an independent source")

    n_steps = int(round(t_stop / dt))
    times = np.arange(n_steps + 1) * dt
    # from the last breakpoint on, b(t) is constant: a step that needs no
    # Newton update then repeats exactly, so the waveform has settled
    settle_t = max((points[-1][0] for points, _, _ in drives), default=0.0)
    c_over_dt = comp.c_mat / dt
    history = np.empty((n_steps + 1, comp.n_unknowns))
    history[0] = x
    for k in range(1, n_steps + 1):
        t = k * dt
        b = comp.b_dc.copy()
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
        x, iters, _ = comp.newton(
            x, b, max_iters=TRAN_MAX_ITERS, c_over_dt=c_over_dt, x_prev=history[k - 1],
            context=f"transient step {k} (t = {t:.6g} s)",
        )
        if iters == 0 and t >= settle_t:
            history[k:] = x
            break
        history[k] = x

    voltages = {"0": np.zeros(n_steps + 1)}
    for net, i in comp.node_index.items():
        if i >= 0:
            voltages[net] = history[:, i].copy()
    return TransientTrace(times_s=times, node_voltages=voltages)
