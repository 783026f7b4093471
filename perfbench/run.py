"""End-to-end and per-layer benchmark for amsizer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; amsizer is imported from its
`src/`.  With --trace 0 the workload runs as a closed loop for S seconds
and the end-to-end metrics are reported; with --trace 1 it runs S/2
seconds untraced and S/2 seconds with every layer wrapped, and the
per-layer metrics are reported.  Both modes first time several cold
set-ups in fresh child processes.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Call
times are calibrated against a speed probe (speed.py).
--smoke shrinks the optimizer budgets and the set-up count so the whole
pipeline can be tested in seconds.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from layers import Tracer, coverage_problems, stress_share
from speed import SpeedProbe
from workloads import WORKLOADS, GateFailure

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 3
# a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


class Loop:
    """Closed loop: one caller, the next call after the previous returns.

    Each run() starts again from the workload's first config, so a traced
    half repeats the configs of the untraced half before it.
    """

    def __init__(self, workload, timer):
        self.workload = workload
        self.timer = timer
        self.calls = []
        self.reference = {}  # config key -> fingerprint of its first call

    def run(self, seconds: float, min_calls: int) -> list:
        done = []
        deadline = time.perf_counter() + seconds
        while len(done) < min_calls or time.perf_counter() < deadline:
            result = self.workload.call(self.timer, len(done))
            first = self.reference.setdefault(result.key, result.fingerprint)
            if result.fingerprint != first:
                raise GateFailure(
                    f"output differs between calls at one seed: {result.fingerprint} != {first}")
            self.calls.append(result)
            done.append(result)
        return done


def measure_setup(config: str, runs: int) -> list[dict]:
    """Cold set-ups, one child process at a time; each child's JSON report.

    The child calibrates its own phases (setup_child.py), because a slow
    stretch of the machine can start or end during a 1-2 s child.
    """
    reports = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_child.py"), SRC, config],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise GateFailure(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return reports


def _openblas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled in a wheel's `<package>.libs`."""
    pattern = os.path.join(os.path.dirname(package.__file__), os.pardir,
                           package.__name__ + ".libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas() -> dict:
    import numpy
    import scipy

    info: dict = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    info["numpy_threads"] = _openblas_threads(numpy)
    info["scipy_threads"] = _openblas_threads(scipy)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def end_to_end(calls, setup) -> tuple[dict, dict]:
    times = [c.cal_s for c in calls]
    sims = sum(c.sims for c in calls)
    failed = sum(c.sims_failed for c in calls)
    metrics = {
        "setup_s": (statistics.median([s["setup_s"] for s in setup]), "s"),
        "session_s.p50": (statistics.median(times), "s"),
        "evals_per_s.p50": (statistics.median([c.sims / c.cal_s for c in calls]), "1/s"),
        "sim_ok_frac": (1.0 - failed / sims, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(times)
    info = {
        "sessions": n,
        "wall (uncalibrated)": f"setup_s {statistics.median([s['wall_s'] for s in setup]):.6g} s, "
                               f"session_s.p50 "
                               f"{statistics.median([c.wall_s for c in calls]):.6g} s",
        "session_s.p90": (statistics.quantiles(times, n=10)[-1]
                          if n * 0.1 >= TAIL_SAMPLES else
                          f"not reported: {n} sessions leave fewer than "
                          f"{TAIL_SAMPLES} beyond p90"),
        "best_fom": {c.key: c.best_fom for c in calls},
        "failed_frac": f"{failed / sims:.6g} ({failed} failed of {sims} simulations)",
    }
    return metrics, info


def per_layer(name, workload, untraced, traced, tracer, pauses, setup):
    """Layer metrics from the traced calls; layer times are wall seconds with
    the probe kernel left out, and shares are of the same traced calls."""
    layer_metrics, calls = tracer.summary(len(traced), pauses)
    problems = coverage_problems(name, calls)
    if problems:
        raise GateFailure("layer coverage: " + "; ".join(problems))
    share, floor = stress_share(name, layer_metrics, statistics.median([c.wall_s for c in traced]))
    if share < floor:
        raise GateFailure(f"stressed layers take {share:.1%} of the session, below {floor:.0%}")
    sims = sum(c.sims for c in traced)
    failed = sum(c.sims_failed for c in traced)
    units = {"calls": "count", "events": "count", "retries": "count", "failed": "count",
             "points": "count", "points_per_call": "count", "chars": "chars",
             "newton_iters.mean": "count", "ms.p50": "ms", "us_per_step": "us"}
    metrics = {}
    for key, value in layer_metrics.items():
        unit = next((u for suffix, u in units.items() if key.endswith("." + suffix)), "s")
        metrics[key] = (value, unit)
    metrics.update({
        "setup.import_s": (statistics.median([s["import_s"] for s in setup]), "s"),
        "config.load_s": (statistics.median([s["load_s"] for s in setup]), "s"),
        "trace.bytes": (workload.trace_bytes(), "bytes"),
        "tracing_overhead_frac": (statistics.median([c.cal_s for c in traced])
                                  / statistics.median([c.cal_s for c in untraced]) - 1.0, "1"),
        "stress_share": (share, "1"),
        "best_fom": (traced[0].best_fom, "1"),
        "sims.attempted": (sims / len(traced), "count"),
        "sims.failed": (failed / len(traced), "count"),
        "failed_frac": (failed / sims, "1"),
    })
    info = {"sessions": f"{len(untraced)} untraced, {len(traced)} traced",
            "stress_floor": floor}
    return metrics, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny optimizer budgets and one set-up run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "amsizer", "cli.py")):
        print(f"error: no amsizer sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import amsizer.cli

    if not os.path.abspath(amsizer.cli.__file__).startswith(SRC + os.sep):
        print(f"error: amsizer was imported from {amsizer.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload = WORKLOADS[args.workload](out_dir=out_dir, seed=args.seed, smoke=args.smoke)
    probe = SpeedProbe()
    loop = Loop(workload, probe.run)
    try:
        setup = measure_setup(workload.config, 1 if args.smoke else SETUP_RUNS)
        with probe:
            loop.run(0, workload.warmup_calls)
            if args.trace:
                untraced = loop.run(args.seconds / 2, 1)
                tracer = Tracer()
                with tracer.installed():
                    traced = loop.run(args.seconds / 2, 1)
            else:
                calls = loop.run(args.seconds, workload.min_calls)
        if args.trace:
            metrics, info = per_layer(args.workload, workload, untraced, traced, tracer,
                                      probe.marks, setup)
            tracer.write(os.path.join(out_dir, "spans.jsonl"))
        else:
            metrics, info = end_to_end(calls, setup)
    except GateFailure as exc:
        print(f"CORRECTNESS GATE FAILED ({args.workload}, seed {args.seed}): {exc}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(loop.calls) + 1, "failed": 1,
                          "metrics": {}}))
        return 1

    info["fingerprints"] = loop.reference
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": env, "info": info,
              "calls": [{"config": c.key, "wall_s": c.wall_s, "calibrated_s": c.cal_s}
                        for c in loop.calls],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calls {len(loop.calls)} (all gates passed)")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value:>14.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": len(loop.calls), "failed": 0,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
