"""The four benchmark workloads and their correctness gates.

Each workload is one closed loop in one process: the next `amsizer run`
or `amsizer optimize` call starts when the previous one has returned.
Calls go through `amsizer.cli.main`, the user-facing entry point, on run
configs generated from the workload's source config with a seed derived
from the benchmark seed written into them.  Every call is checked; a
wrong output raises GateFailure, and no number is reported from that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import yaml

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
LEDGER_KEYS = ("llm_calls", "opt_calls", "dc_sims", "full_sims_llm", "full_sims_opt")


class GateFailure(RuntimeError):
    """The program produced a wrong output; the run reports no metrics."""


@dataclass(frozen=True)
class CallResult:
    key: int  # which generated config ran; equal keys must give equal fingerprints
    wall_s: float  # wall time, probe kernel excluded
    cal_s: float  # calibrated seconds (see speed.py)
    sims: int
    sims_failed: int
    best_fom: float
    fingerprint: str  # must repeat exactly across calls at one seed


def generate_config(source: str, dest: str, seed: int, output_dir: str) -> str:
    """Write `source` with absolute netlist/scenario paths, the seed and an output dir."""
    with open(source, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    base = os.path.dirname(os.path.abspath(source))
    cfg["netlist"] = os.path.normpath(os.path.join(base, cfg["netlist"]))
    backend = dict(cfg["backend"])
    if "scenario" in backend:
        backend["scenario"] = os.path.normpath(os.path.join(base, backend["scenario"]))
    cfg["backend"] = backend
    cfg["seed"] = seed
    cfg["output_dir"] = output_dir
    with open(dest, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return dest


def _call_cli(argv: list[str], timer) -> tuple[int, str, float, float]:
    """amsizer.cli.main(argv) under `timer` (SpeedProbe.run), stdout captured."""
    import amsizer.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc, wall, calibrated = timer(lambda: amsizer.cli.main(argv))
    return rc, out.getvalue(), wall, calibrated


class Agentic:
    """Scripted `amsizer run` session; the ledger is fixed by the scenario."""

    warmup_calls = 1  # untimed; its trace is the reference for every later call
    min_calls = 1

    def __init__(self, source: str, ledger: tuple[int, ...], *,
                 out_dir: str, seed: int, smoke: bool):
        self.ledger = dict(zip(LEDGER_KEYS, ledger))
        self.out_dir = os.path.join(out_dir, "session")
        self.config = generate_config(
            os.path.join(ROOT, source), os.path.join(out_dir, "run.yaml"), seed, self.out_dir)

    def call(self, timer, index: int) -> CallResult:
        rc, stdout, wall, calibrated = _call_cli(["run", self.config], timer)
        trace_path = os.path.join(self.out_dir, "trace.jsonl")
        with open(trace_path, "rb") as fh:
            trace = fh.read()
        with open(os.path.join(self.out_dir, "best_point.json"), encoding="utf-8") as fh:
            best = json.load(fh)
        if rc != 0 or best["status"] != "success":
            raise GateFailure(f"run exited {rc} with status {best['status']!r}: {stdout!r}")
        ledger = {k: best["accounting"][k] for k in LEDGER_KEYS}
        if ledger != self.ledger:
            raise GateFailure(f"ledger {ledger} != expected {self.ledger}")
        sims = failed = 0
        for line in trace.splitlines():
            event = json.loads(line)
            if event["kind"] == "sim_result":
                sims += 1
                failed += not event["payload"]["ok"]
        if sims != ledger["dc_sims"] + ledger["full_sims_llm"] + ledger["full_sims_opt"]:
            raise GateFailure(f"{sims} sim_result events do not match the ledger {ledger}")
        return CallResult(0, wall, calibrated, sims, failed, float(best["best_fom"]),
                          "trace.jsonl sha256 " + hashlib.sha256(trace).hexdigest())

    def trace_bytes(self) -> int:
        return os.path.getsize(os.path.join(self.out_dir, "trace.jsonl"))


class DeOptimize:
    """`amsizer optimize --algo de` at a fixed budget.

    The cost of one call depends on the points DE visits, so on its seed
    (about 10% coefficient of variation between seeds).  Calls therefore
    cycle through `trajectories` configs whose seeds are
    seed * trajectories + 0, 1, ...; a run's median covers that many DE
    trajectories, and a config that runs twice must give the same best_fom.
    """

    warmup_calls = 0

    def __init__(self, source: str, budget: int, smoke_budget: int, trajectories: int,
                 check_slew: bool = False, *, out_dir: str, seed: int, smoke: bool):
        self.budget = smoke_budget if smoke else budget
        self.check_slew = check_slew
        self.min_calls = trajectories
        self.configs = [
            generate_config(os.path.join(ROOT, source), os.path.join(out_dir, f"run-{j}.yaml"),
                            seed * trajectories + j, os.path.join(out_dir, "session"))
            for j in range(trajectories)
        ]
        self.config = self.configs[0]

    def call(self, timer, index: int) -> CallResult:
        key = index % len(self.configs)
        with self._slew_probe() as slews:
            rc, stdout, wall, calibrated = _call_cli(
                ["optimize", self.configs[key], "--algo", "de", "--budget", str(self.budget)],
                timer)
        if rc != 0:
            raise GateFailure(f"optimize exited {rc}")
        result = json.loads(stdout)
        used, failed = result["budget_used"], result["failed_evaluations"]
        if used != self.budget:
            raise GateFailure(f"budget_used {used} != budget {self.budget}")
        if self.check_slew:
            bad = [s for s in slews if not math.isfinite(s)]
            if bad or len(slews) != used - failed:
                raise GateFailure(
                    f"{len(slews)} slew rates measured for {used - failed} successful "
                    f"evaluations, {len(bad)} not finite")
        best = float(result["best_fom"])
        return CallResult(key, wall, calibrated, used, failed, best, f"best_fom {best!r}")

    @contextlib.contextmanager
    def _slew_probe(self):
        """Collect every slew rate the metric extraction computes.

        One list append per evaluation, against a ~0.1 s transient each:
        it checks outputs, it does not time anything.
        """
        slews: list[float] = []
        if not self.check_slew:
            yield slews
            return
        import amsizer.metrics as metrics

        original = metrics.slew_rate_vps

        def probe(*args, **kwargs):
            value = original(*args, **kwargs)
            slews.append(value)
            return value

        metrics.slew_rate_vps = probe
        try:
            yield slews
        finally:
            metrics.slew_rate_vps = original

    def trace_bytes(self) -> int:
        return 0


# name -> constructor taking (out_dir=, seed=, smoke=)
WORKLOADS = {
    "agentic-two-stage": partial(Agentic, "tests/data/two_stage_run.yaml", (34, 0, 6, 9, 0)),
    "agentic-folded": partial(Agentic, "tests/data/folded_cascode_run.yaml", (54, 1, 4, 21, 43)),
    "de-two-stage": partial(DeOptimize, "tests/data/two_stage_run.yaml",
                            budget=2000, smoke_budget=40, trajectories=2),
    "de-tran": partial(DeOptimize, "perfbench/configs/de_tran_run.yaml",
                       budget=32, smoke_budget=20, trajectories=5, check_slew=True),
}
