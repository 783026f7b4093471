"""A deterministic work ledger: what four reference runs compute, counted.

Wall time on a shared machine moves by up to 2x; the work a run does is
exact.  Each run below is counted at the module globals that the
simulator and the optimizer call: Newton solves (`_Compiled.newton`
calls) and the iterations of the converged ones, MOSFET evaluations
(`mos_eval`), LU factorizations (`dgetrf`, failed rungs included), QZ
factorizations, GP fits, and `gp_predict` calls and rows.  A change that
claims no change in work must keep every count; one that changes work on
purpose regenerates the table (`PYTHONPATH=src python3 tests/_digest.py`)
and states the change.

The counts follow the trajectory, so they share the digests' caveat: on a
machine whose BLAS flips an EI argmax, the folded row differs.
"""

import contextlib
import io
import pprint
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from _digest import ROOT, config_at_seed

import amsizer.optimizer as optimizer
import amsizer.simulator as simulator
from amsizer.cli import main

DATA = ROOT / "tests" / "data"

# run -> (command after the config path, config)
RUNS = {
    "two-stage session": ([], DATA / "two_stage_run.yaml"),
    "folded session": ([], DATA / "folded_cascode_run.yaml"),
    "two-stage de 400": (["--algo", "de", "--budget", "400"], DATA / "two_stage_run.yaml"),
    "de-tran de 32": (["--algo", "de", "--budget", "32"],
                      ROOT / "perfbench" / "configs" / "de_tran_run.yaml"),
}

# run -> counts at seed 0
LEDGER = {'two-stage session': {'newton_solves': 45,
                       'newton_iters': 137,
                       'device_evals': 1216,
                       'lu_factorizations': 152,
                       'qz': 9,
                       'gp_fits': 0,
                       'gp_predict_calls': 0,
                       'gp_predict_rows': 0},
 'folded session': {'newton_solves': 213,
                    'newton_iters': 831,
                    'device_evals': 10980,
                    'lu_factorizations': 1099,
                    'qz': 63,
                    'gp_fits': 43,
                    'gp_predict_calls': 3598,
                    'gp_predict_rows': 47587},
 'two-stage de 400': {'newton_solves': 1580,
                      'newton_iters': 6222,
                      'device_evals': 89736,
                      'lu_factorizations': 11222,
                      'qz': 395,
                      'gp_fits': 0,
                      'gp_predict_calls': 0,
                      'gp_predict_rows': 0},
 'de-tran de 32': {'newton_solves': 18287,
                   'newton_iters': 19360,
                   'device_evals': 155936,
                   'lu_factorizations': 19492,
                   'qz': 32,
                   'gp_fits': 0,
                   'gp_predict_calls': 0,
                   'gp_predict_rows': 0}}


@contextlib.contextmanager
def counting():
    """Count calls at the simulator's and the optimizer's module globals."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    newton = simulator._Compiled.newton

    def counted_newton(self, *args, **kwargs):
        counts["newton_solves"] += 1
        x, iters, residual = newton(self, *args, **kwargs)
        counts["newton_iters"] += iters
        return x, iters, residual

    gp_predict = optimizer.gp_predict

    def counted_predict(model, x):
        mean, var = gp_predict(model, x)
        counts["gp_predict_calls"] += 1
        counts["gp_predict_rows"] += len(mean)
        return mean, var

    patches = [
        (simulator, "mos_eval", counted("device_evals", simulator.mos_eval)),
        (simulator, "dgetrf", counted("lu_factorizations", simulator.dgetrf)),
        (simulator, "qz", counted("qz", simulator.qz)),
        (simulator._Compiled, "newton", counted_newton),
        (optimizer, "gp_fit", counted("gp_fits", optimizer.gp_fit)),
        (optimizer, "gp_predict", counted_predict),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield counts
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def _row(run, tmp_path):
    extra, config = RUNS[run]
    command = "optimize" if extra else "run"
    with counting() as counts, contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(config_at_seed(config, tmp_path, 0)), *extra])
    assert code == 0
    return {key: counts[key] for key in (
        "newton_solves", "newton_iters", "device_evals", "lu_factorizations", "qz",
        "gp_fits", "gp_predict_calls", "gp_predict_rows")}


@pytest.mark.parametrize("run", list(RUNS))
def test_work_ledger(run, tmp_path):
    assert _row(run, tmp_path) == LEDGER[run]


def print_tables():
    table = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            table[run] = _row(run, Path(tmp))
    print("# run -> counts at seed 0")
    print("LEDGER = " + pprint.pformat(table, width=100, sort_dicts=False))


if __name__ == "__main__":
    print_tables()
