"""A machine-independent digest of the scripted folded-cascode session.

`amsizer run tests/data/folded_cascode_run.yaml` at seeds 0-2: the agents
stall and phase 4 hands the search to BO over the matching finder's four
equal groups.  The exit code, status and ledger must match exactly and
every `sim_result`'s FoM within 1e-12 relative, so a change that moves
the session's trajectory fails here on any machine, where the sha256
pins of `tests/test_trace.py` may differ in the last bits of a float.
Run this file as a script to print the current table.
"""

import contextlib
import io
import json

import pytest
from _digest import ROOT, config_at_seed, print_digest

from amsizer.cli import main
from amsizer.trace import load_trace

CONFIG = ROOT / "tests" / "data" / "folded_cascode_run.yaml"

# seed -> (exit code, status, ledger, FoM of every sim_result in order; None for a simulation that was not scored)
DIGEST = {0: (0, 'success',
     {'dc_sims': 4,
      'full_sims_llm': 21,
      'full_sims_opt': 43,
      'full_sims_total': 64,
      'llm_calls': 54,
      'opt_calls': 1},
     [None, None, None, None, 0.9474921977595617, 0.9872988001252052, 0.9560164134681437,
      0.9711666890976602, 0.9435030300577368, 0.9283951666615174, 0.9874703579457348, None, 0.25,
      0.9718719003968674, 0.956377438130233, 0.9872417507221024, 0.9963348785971882, 0.25,
      0.9537348305023344, 0.9715631783059429, 0.9958542882205572, 0.9962370317117224,
      0.9857309543839342, 0.9967013727654874, 0.9963348785971882, 0.8675713674685777, 0.25,
      0.9469215593033014, 0.8217266248119156, 0.25, 0.8923513525715085, 0.949825028811246,
      0.7531790333383959, 0.8258477395168581, 1.0, 0.9881210735965381, 0.921002526100885,
      0.8252578893982573, 0.25, 1.0, 0.9801340448435472, 0.9398393216272872, 0.7769095668766395,
      0.9581739576393654, 0.9816226745590626, 0.8153978909257296, 0.8461255169675677, 0.25, 1.0,
      0.2089903435817615, 0.774556209806611, 0.9154590821713406, 0.9891931390301597,
      0.9738718457510569, 1.0, 0.977970140463341, 1.0, 0.25, 0.8361814309685363, 0.9404823871543375,
      0.9327298211945071, 0.9907161054922816, 1.0, 0.9786005660205964, 0.8714928210590621, 0.25,
      1.0, 0.9995214646263315]),
 1: (0, 'success',
     {'dc_sims': 4,
      'full_sims_llm': 21,
      'full_sims_opt': 43,
      'full_sims_total': 64,
      'llm_calls': 54,
      'opt_calls': 1},
     [None, None, None, None, 0.9474921977595617, 0.9872988001252052, 0.9560164134681437,
      0.9711666890976602, 0.9435030300577368, 0.9283951666615174, 0.9874703579457348, None, 0.25,
      0.9718719003968674, 0.956377438130233, 0.9872417507221024, 0.9963348785971882, 0.25,
      0.9537348305023344, 0.9715631783059429, 0.9958542882205572, 0.9962370317117224,
      0.9857309543839342, 0.9967013727654874, 0.9963348785971882, 0.25, 0.6263330339149377,
      0.9354924717096821, 1.0, 0.25, 0.768479909035569, 0.8981092883475821, 0.9465159593157335,
      0.9853540988573509, 0.7486124462173879, 0.8208301222129221, 0.25, 0.9347817303418359,
      0.8430604178629472, 0.9916086455780599, 0.7909731920453817, 0.9222971656672685,
      0.8804531772906499, 0.9532653718538714, 0.9696215673658768, 0.8023684462779088,
      0.829984262112893, 0.25, 0.9218850012307682, 0.25, 0.7571307735786015, 0.8500134173110456,
      0.9886505791190596, 0.9509373765880516, 0.9486295301151833, 0.25, 0.851397777151111,
      0.9637361998193489, 0.9222352938178711, 0.7216106137018392, 0.8652456331951914,
      0.8272173257359345, 0.940049268083077, 0.7965927806804189, 0.25, 0.9833312809855961,
      0.7869302917881393, 0.9544329056514946]),
 2: (0, 'success',
     {'dc_sims': 4,
      'full_sims_llm': 21,
      'full_sims_opt': 43,
      'full_sims_total': 64,
      'llm_calls': 54,
      'opt_calls': 1},
     [None, None, None, None, 0.9474921977595617, 0.9872988001252052, 0.9560164134681437,
      0.9711666890976602, 0.9435030300577368, 0.9283951666615174, 0.9874703579457348, None, 0.25,
      0.9718719003968674, 0.956377438130233, 0.9872417507221024, 0.9963348785971882, 0.25,
      0.9537348305023344, 0.9715631783059429, 0.9958542882205572, 0.9962370317117224,
      0.9857309543839342, 0.9967013727654874, 0.9963348785971882, 0.9383605199321244,
      0.9838772648521218, 0.9905846660822523, 0.8727399398232664, 0.9284212387817429,
      0.9400381658481518, 0.9729742654255806, 0.8969929984880741, 0.25, 0.8107851941718152,
      0.8401324690373912, 0.7208342348775961, 0.898510259717745, 0.8539291397805089,
      0.9628065839225313, 0.9364035807071975, 0.8259714072095539, 1.0, 0.25, 0.8148526761502911,
      1.0, 0.9625049648637081, 0.7990415858059976, 0.964221006462266, 0.8847616873270807, 1.0,
      0.9580734506207259, 0.25, 0.8169790110597528, 0.9847011118927909, 0.25, 0.9631428144194155,
      0.9782431396495691, 0.6734199901359255, 0.25, 0.9881198306163417, 0.9849866184638116,
      0.9487760804789094, 0.8052472054993682, 1.0, 0.9919417187820235, 0.9647599373526764,
      0.8668886946347184])}


def _row(seed, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(config_at_seed(CONFIG, tmp_path, seed))])
    best = json.loads((tmp_path / "out" / "best_point.json").read_text(encoding="utf-8"))
    foms = [e.payload.get("fom") for e in load_trace(str(tmp_path / "out" / "trace.jsonl"))
            if e.kind == "sim_result"]
    return code, best["status"], best["accounting"], foms


@pytest.mark.parametrize("seed", sorted(DIGEST))
def test_folded_session_digest(seed, tmp_path):
    code, status, ledger, foms = _row(seed, tmp_path)
    want_code, want_status, want_ledger, want_foms = DIGEST[seed]
    assert (code, status, ledger) == (want_code, want_status, want_ledger)
    assert [f is None for f in foms] == [f is None for f in want_foms]
    assert [f for f in foms if f is not None] == pytest.approx(
        [f for f in want_foms if f is not None], rel=1e-12, abs=0.0)


if __name__ == "__main__":
    print_digest(_row, sorted(DIGEST), "seed -> (exit code, status, ledger, FoM of every "
                 "sim_result in order; None for a simulation that was not scored)")
