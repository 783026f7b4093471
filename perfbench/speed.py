"""Machine-speed probe: wall times calibrated against a fixed kernel.

On a shared 2-core VM the same code runs up to ~1.8x slower for
stretches of several to tens of seconds (other tenants on the cores),
which is longer than one benchmark run.  Medians alone cannot remove
that.  So while a call runs, a SIGALRM timer interrupts it every
PERIOD_S and times a fixed kernel (small LU solves plus dict and float
work, the mix amsizer itself runs).  Each stretch of the call between
two probes is scaled by NOMINAL_KERNEL_S over the mean of the two
kernel times around it, and the time spent in the probes is left out.
Each probe runs the kernel twice and times the second run, so the
kernel is timed warm both inside a call and between calls.
The result is "calibrated seconds": the call's time on a machine where
the kernel takes exactly NOMINAL_KERNEL_S.  Raw wall times are kept
next to them.
"""

from __future__ import annotations

import signal
import time

# about each warm kernel's time on the 2-core VM when it is not slowed,
# so calibrated seconds read close to wall seconds there
NOMINAL_KERNEL_S = 0.0006
NOMINAL_PYTHON_KERNEL_S = 0.00063
PERIOD_S = 0.025


def python_kernel(n: int = 2400) -> float:
    """Dict and float work only: usable before numpy is imported."""
    acc = 0.0
    table: dict = {}
    for i in range(n):
        key = ("k", i % 37)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] / (1 + i)
    return acc


_LU_INPUTS: list = []  # (matrix, rhs), made on first use so importing needs no numpy


def kernel() -> float:
    """Small LU solves, like the simulator's, plus python_kernel()."""
    import numpy as np
    import scipy.linalg

    if not _LU_INPUTS:
        rng = np.random.default_rng(0)
        _LU_INPUTS.extend((rng.random((12, 12)) + 12.0 * np.eye(12), rng.random(12)))
    a, b = _LU_INPUTS
    acc = 0.0
    for _ in range(30):
        lu = scipy.linalg.lu_factor(a, check_finite=False)
        acc += float(scipy.linalg.lu_solve(lu, b, check_finite=False)[0])
    return acc + python_kernel(600)


class SpeedProbe:
    """Times a kernel at call boundaries and every PERIOD_S during a call."""

    def __init__(self, probe_kernel=kernel, nominal_s: float = NOMINAL_KERNEL_S):
        self.kernel = probe_kernel
        self.nominal_s = nominal_s
        self.marks: list[tuple[float, float, float]] = []  # (probe start, probe end, kernel s)
        self._armed = False
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        warm = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.marks.append((start, end, end - warm))

    def _tick(self, signum, frame) -> None:
        if not self._armed:  # a tick delivered after the call ended
            return
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, fn):
        """(fn(), wall seconds outside the kernel, calibrated seconds)."""
        self.sample()
        first = len(self.marks) - 1
        self._armed = True
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            result = fn()
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        inner = [m for m in self.marks[first + 1:] if m[1] <= end]
        self.sample()
        marks = [self.marks[first], *inner, self.marks[-1]]
        # stretches of the call: [start, 1st inner probe), ..., [last probe end, end)
        edges = [start] + [t for m in marks[1:-1] for t in m[:2]] + [end]
        wall = calibrated = 0.0
        for i in range(len(marks) - 1):
            stretch = edges[2 * i + 1] - edges[2 * i]
            kernel_s = (marks[i][2] + marks[i + 1][2]) / 2
            wall += stretch
            calibrated += stretch * self.nominal_s / kernel_s
        return result, wall, calibrated
