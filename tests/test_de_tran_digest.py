"""A machine-independent digest of the `de-tran` benchmark workload.

`amsizer optimize perfbench/configs/de_tran_run.yaml --algo de --budget 32`
at seeds 0 and 1: the evaluation counts must match exactly and every
FoM within 1e-12 relative, so a simulator change that moves any point's
transient (and with it the DE trajectory) fails here on any machine.
Run this file as a script to print the current table.
"""

import pytest
from _digest import ROOT, assert_optimize_row, optimize_row, print_digest

CONFIG = ROOT / "perfbench" / "configs" / "de_tran_run.yaml"

# seed -> (budget_used, failed_evaluations, best_fom, FoM of every evaluation in order)
DIGEST = {
    0: (32, 0, 0.5835041978817433, [
        0.29009062987508777, 0.5835041978817433, 0.20502697230983175, 0.22792261257364652,
        0.2158383333961032, 0.2009634445791873, 0.28182397772734885, 0.23380613326904282,
        0.26238146413764973, 0.28833480566050806, 0.22223726974234964, 0.06960354011031282,
        0.05865698225448114, 0.23006994249053375, 0.20846878006357078, 0.2018806110804498,
        0.3718812086616247, 0.20590018531666615, 0.23656326035883435, 0.21483125920580842,
        0.2542373636536594, 0.201778314871811, 0.39714206960253834, 0.21184334423821252,
        0.0693855229193417, 0.24766809206534726, 0.20095624280353147, 0.1349570908273597,
        0.2121220363768174, 0.20009815682310955, 0.06676030507201548, 0.2200348363639235,
    ]),
    1: (32, 0, 0.7463227208672514, [
        0.4, 0.4, 0.08305206414584351, 0.2108404111260133,
        0.23586116161029552, 0.24842739148249632, 0.2545932155321895, 0.3550894180107676,
        0.055838207840664164, 0.2813621573443993, 0.7463227208672514, 0.2307007034490459,
        0.2413868340058521, 0.23401332579221262, 0.20561244255523176, 0.2985015226757669,
        0.20462034244744917, 0.4, 0.334079544092518, 0.20088777136745445,
        0.3301120926370267, 0.20586632589846676, 0.3218737048961005, 0.2901509835596651,
        0.4, 0.2773954566767177, 0.21599415950763615, 0.4,
        0.6065735144132933, 0.36314067122251253, 0.020637835122270933, 0.23344221746029561,
    ]),
}


def _row(seed, tmp_path):
    return optimize_row(CONFIG, tmp_path, seed, "de", 32)


@pytest.mark.parametrize("seed", sorted(DIGEST))
def test_de_tran_digest(seed, tmp_path):
    assert_optimize_row(_row(seed, tmp_path), DIGEST[seed])


def print_tables():
    print_digest(_row, sorted(DIGEST), "seed -> (budget_used, failed_evaluations, best_fom, "
                 "FoM of every evaluation in order)")


if __name__ == "__main__":
    print_tables()
