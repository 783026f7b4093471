"""A machine-independent digest of the Bayesian optimizer's path.

`amsizer optimize tests/data/folded_cascode_run.yaml --algo bo --budget 30`
at seeds 0 and 1: 20 random points, then 10 BO proposals over a space
with no matching groups.  The evaluation counts must match exactly and
every FoM within 1e-12 relative, so a change that moves any proposal
(GP fit, EI, its refinement, the projection) fails here on any machine.
Run this file as a script to print the current table.
"""

import pytest
from _digest import ROOT, assert_optimize_row, optimize_row, print_digest

CONFIG = ROOT / "tests" / "data" / "folded_cascode_run.yaml"

# seed -> (budget_used, failed_evaluations, best_fom, FoM of every evaluation in order)
DIGEST = {0: (30, 0, 0.822977147257995,
     [0.25, 0.1634166895266993, 0.25, 0.822977147257995, 0.25, 0.25, 0.1265124639655984,
      0.13373433293964743, 0.25, 0.25, 0.25, 0.5802074374116717, 0.25, 0.25, 0.25,
      0.08541793820855034, 0.25, 0.25, 0.25, 0.25, 0.24146163507191296, 0.11460180401986765,
      0.14095911422650148, 0.09987223400073411, 0.19476594210471077, 0.2140994503424635,
      0.12674278297940766, 0.0894876505667066, 0.09300307822277831, 0.0907965184881895]),
 1: (30, 0, 0.25,
     [0.0527721665706109, 0.07993965524916348, 0.25, 0.036394845028169885, 0.25, 0.1679296261412186,
      0.25, 0.25, 0.12291958223645458, 0.25, 0.06654878979523363, 0.25, 0.25, 0.14613452606380056,
      0.25, 0.25, 0.25, 0.25, 0.24107778388185647, 0.07848999764393325, 0.25, 0.25, 0.25, 0.25,
      0.25, 0.25, 0.25, 0.25, 0.25, 0.25])}


def _row(seed, tmp_path):
    return optimize_row(CONFIG, tmp_path, seed, "bo", 30)


@pytest.mark.parametrize("seed", sorted(DIGEST))
def test_bo_digest(seed, tmp_path):
    assert_optimize_row(_row(seed, tmp_path), DIGEST[seed])


def print_tables():
    print_digest(_row, sorted(DIGEST), "seed -> (budget_used, failed_evaluations, best_fom, "
                 "FoM of every evaluation in order)")


if __name__ == "__main__":
    print_tables()
