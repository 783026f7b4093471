"""Level-1 square-law MOSFET model with channel-length modulation.

The drain current and its partial derivatives are computed in a
polarity-normalized frame (PMOS voltages are mirrored before entering
the equations), with a source/drain swap for negative vds so the model
is valid for any terminal ordering.  The cutoff/conduction boundary is
smoothed with a 1 mV quadratic blend on the overdrive so Newton never
sees a derivative jump at vgs = vth.
"""

from __future__ import annotations

from dataclasses import dataclass

# half-width of the quadratic overdrive blend, volts
OV_BLEND = 1e-3


@dataclass(frozen=True)
class MosModelCard:
    kind: str  # "NMOS" | "PMOS"
    vth: float  # V, threshold magnitude
    kprime: float  # A/V^2, process transconductance (mu * Cox)
    lam: float = 0.0  # 1/V, channel-length modulation
    cox_area: float = 0.0  # F/m^2, gate oxide capacitance per area

    def __post_init__(self):
        if self.kind not in ("NMOS", "PMOS"):
            raise ValueError(f"model kind must be NMOS or PMOS, got {self.kind!r}")
        if self.vth <= 0:
            raise ValueError("vth must be > 0 (threshold magnitude)")
        if self.kprime <= 0:
            raise ValueError("kprime must be > 0")
        if self.lam < 0 or self.cox_area < 0:
            raise ValueError("lambda and cox_area must be >= 0")

    @property
    def polarity(self) -> int:
        return 1 if self.kind == "NMOS" else -1


# a plausible 180 nm-class process, used when a run supplies no cards
DEFAULT_MODEL_CARDS = {
    "NMOS": MosModelCard("NMOS", vth=0.4, kprime=200e-6, lam=0.1, cox_area=8e-3),
    "PMOS": MosModelCard("PMOS", vth=0.4, kprime=80e-6, lam=0.1, cox_area=8e-3),
}


def mos_eval(
    pol: int, beta: float, vth: float, lam: float, vg: float, vd: float, vs: float
) -> tuple[float, float, float]:
    """Drain current of a MOSFET on precomputed device constants: polarity
    (+1 NMOS, -1 PMOS) and beta = kprime * W / L.  A simulator calls this
    once per device per Newton iterate, so it is one flat function.

    Returns (id, did/dvgs_n, did/dvds_n) where `id` is the conventional
    current into the physical drain terminal and the derivatives are in
    the polarity-normalized frame.  The caller converts to node-voltage
    derivatives; those turn out to be polarity-independent:

        dI_d/dvg = did_dvgs_n,  dI_d/dvd = did_dvds_n,
        dI_d/dvs = -(did_dvgs_n + did_dvds_n)
    """
    u = pol * (vg - vs)
    wv = pol * (vd - vs)
    if wv >= 0.0:
        vgs, vds = u, wv
    else:
        # reverse conduction: swap source and drain
        vgs, vds = u - wv, -wv
    # overdrive max(x, 0) with a C1 quadratic blend of half-width OV_BLEND
    x = vgs - vth
    e = OV_BLEND
    if x <= -e:
        vov, dvov = 0.0, 0.0
    elif x >= e:
        vov, dvov = x, 1.0
    else:
        t = x + e
        vov, dvov = t * t / (4.0 * e), t / (2.0 * e)
    clm = 1.0 + lam * vds
    if vds >= vov:
        i0 = 0.5 * beta * vov * vov
        i, fu, fw = i0 * clm, beta * vov * dvov * clm, i0 * lam
    else:
        i0 = beta * (vov * vds - 0.5 * vds * vds)
        i, fu, fw = i0 * clm, beta * dvov * vds * clm, beta * (vov - vds) * clm + i0 * lam
    if wv >= 0.0:
        return pol * i, fu, fw
    return -pol * i, -fu, fu + fw


def classify_region(vgs: float, vds: float, vth_eff: float) -> str:
    """Operating region from normalized (NMOS-frame) voltages."""
    if vgs < vth_eff:
        return "cutoff"
    if vds >= vgs - vth_eff:
        return "saturation"
    return "triode"
