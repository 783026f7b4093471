"""Performance metric extraction and Figure-of-Merit scoring.

Metrics are pulled from simulation results into a plain name->number
map; a spec set then scores that map into a figure of merit in [0, 1]
that is 1 exactly when every hard spec is satisfied.  Unmeasured hard
metrics score 0, so a sizing that breaks an analysis is never rewarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import AcSweep, DcSolution, TransientTrace

METRIC_NAMES = ("gain_db", "ugbw_hz", "phase_margin_deg", "power_w", "slew_rate_vps")
DIRECTIONS = (">=", "<=")


@dataclass(frozen=True)
class Spec:
    metric: str
    direction: str
    target: float
    hardness: str = "hard"  # "hard" | "soft_objective"

    def __post_init__(self):
        if self.metric not in METRIC_NAMES:
            raise ValueError(
                f"unknown metric {self.metric!r}; expected one of {METRIC_NAMES}"
            )
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be '>=' or '<=', got {self.direction!r}")
        if not math.isfinite(self.target):
            raise ValueError(f"spec target for {self.metric} must be finite")
        if self.hardness not in ("hard", "soft_objective"):
            raise ValueError(f"hardness must be hard or soft_objective, got {self.hardness!r}")

    def is_met(self, value: float) -> bool:
        if self.direction == ">=":
            return value >= self.target
        return value <= self.target


@dataclass(frozen=True)
class MetricReport:
    values: dict[str, float]
    satisfied: dict[str, bool]
    fom: float


def validate_specs(specs: list[Spec]) -> None:
    seen = set()
    for s in specs:
        if s.metric in seen:
            raise ValueError(f"more than one spec for metric {s.metric!r}")
        seen.add(s.metric)


def gain_db_at_f_lo(ac: AcSweep) -> float:
    mag = abs(ac.transfer[0])
    if mag <= 0.0:
        return float("-inf")
    return 20.0 * math.log10(mag)


def unity_gain_bandwidth(ac: AcSweep) -> float:
    """Frequency where |H| falls through 1, by log-f/dB interpolation.

    Returns 0 when no downward unity crossing exists in the sweep.
    """
    mags = np.abs(ac.transfer)
    if len(mags) < 2:
        return float(ac.freqs_hz[0]) if len(mags) == 1 and mags[0] == 1.0 else 0.0
    with np.errstate(divide="ignore"):
        y = 20.0 * np.log10(mags)
    crossings = np.flatnonzero((y[:-1] >= 0.0) & (y[1:] < 0.0))
    if len(crossings) == 0:
        return 0.0
    i = crossings[0]
    if y[i] == 0.0:
        return float(ac.freqs_hz[i])
    x = np.log10(ac.freqs_hz)
    x_star = x[i] + (0.0 - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
    return float(10.0 ** x_star)


def phase_margin_deg(ac: AcSweep, ugbw_hz: float) -> float | None:
    """180 degrees plus the unwrapped phase at the unity crossing."""
    if ugbw_hz <= 0.0 or len(ac.freqs_hz) < 2:
        return None
    phase = np.degrees(np.unwrap(np.angle(ac.transfer)))
    x = np.log10(ac.freqs_hz)
    ph = float(np.interp(math.log10(ugbw_hz), x, phase))
    return 180.0 + ph


def supply_power_w(dc: DcSolution) -> float:
    return float(sum(dc.source_power_w.values()))


def slew_rate_vps(tran: TransientTrace, output_net: str) -> float:
    v = tran.node_voltages[output_net]
    if len(v) < 2:
        return 0.0
    dt = float(tran.times_s[1] - tran.times_s[0])
    return float(np.max(np.abs(np.diff(v))) / dt)


def extract_metrics(
    ac: AcSweep,
    dc: DcSolution,
    tran: TransientTrace | None = None,
    tran_output: str | None = None,
) -> dict[str, float]:
    """Measured metric map; metrics whose inputs are absent are omitted."""
    values: dict[str, float] = {}
    if len(ac.freqs_hz) > 0:
        values["gain_db"] = gain_db_at_f_lo(ac)
        ugbw = unity_gain_bandwidth(ac)
        values["ugbw_hz"] = ugbw
        pm = phase_margin_deg(ac, ugbw)
        if pm is not None:
            values["phase_margin_deg"] = pm
    values["power_w"] = supply_power_w(dc)
    if tran is not None and tran_output is not None:
        values["slew_rate_vps"] = slew_rate_vps(tran, tran_output)
    return values


def compute_fom(values: dict[str, float], specs: list[Spec]) -> float:
    """Mean clamped satisfaction ratio over hard specs.

    Ratio per hard spec: 1 when met; otherwise value/target (for >=) or
    target/value (for <=), clamped to [0, 1].  Unmeasured metrics score
    0.  With no hard specs the figure is vacuously 1.
    """
    hard = [s for s in specs if s.hardness == "hard"]
    if not hard:
        return 1.0
    ratios = []
    for s in hard:
        v = values.get(s.metric)
        if v is None or math.isnan(v):
            ratios.append(0.0)
            continue
        if s.is_met(v):
            ratios.append(1.0)
            continue
        if s.direction == ">=":
            r = v / s.target if s.target > 0 else 0.0
        else:
            r = s.target / v if v > 0 and s.target > 0 else 0.0
        ratios.append(min(max(r, 0.0), 1.0))
    return float(sum(ratios) / len(ratios))


def evaluate(values: dict[str, float], specs: list[Spec]) -> MetricReport:
    validate_specs(specs)
    satisfied = {}
    for s in specs:
        v = values.get(s.metric)
        satisfied[s.metric] = v is not None and not math.isnan(v) and s.is_met(v)
    return MetricReport(values=dict(values), satisfied=satisfied, fom=compute_fom(values, specs))
