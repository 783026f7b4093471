"""Tests for the append-only trace log, accounting fold, and report."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from amsizer import cli
from amsizer.netlist import ParameterSpace, SpaceEntry
from amsizer.optimizer import OptimizerRequest, optimize
from amsizer.trace import (
    TraceLog,
    fom_series,
    load_trace,
    render_report,
    summarize_accounting,
)


class TestRecord:
    def test_seqs_start_at_one_and_increase(self):
        log = TraceLog()
        assert log.record(1, "engine", "warning", {"message": "a"}) == 1
        assert log.record(1, "engine", "warning", {"message": "b"}) == 2
        assert [e.seq for e in log.events] == [1, 2]

    def test_virtual_clock_counts_up(self):
        log = TraceLog()
        log.record(1, "engine", "warning", {"message": "a"})
        log.record(2, "engine", "warning", {"message": "b"})
        assert [e.timestamp for e in log.events] == [0.0, 1.0]

    def test_injected_clock_is_used(self):
        times = iter([10.5, 11.25])
        log = TraceLog(clock=lambda: next(times))
        log.record(1, "engine", "warning", {"message": "a"})
        log.record(1, "engine", "warning", {"message": "b"})
        assert [e.timestamp for e in log.events] == [10.5, 11.25]

    def test_unknown_kind_rejected(self):
        log = TraceLog()
        with pytest.raises(ValueError, match="kind"):
            log.record(1, "engine", "note", {})

    def test_payload_round_trips_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        payload = {
            "point": {"W1": 2.0000000000000004e-05, "L1": 1e-07},
            "fom": 0.123456789012345,
            "ok": True,
            "note": "π-free ascii",
        }
        with TraceLog(str(path)) as log:
            log.record(3, "optimizer", "sim_result", payload)
            log.record(3, "engine", "budget", {"counter": "dc_sims", "delta": 1, "total": 1})
        loaded = load_trace(str(path))
        assert loaded == log.events
        assert loaded[0].payload["point"]["W1"] == 2.0000000000000004e-05

    def test_load_trace_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"seq": 1, "timestamp": 0.0, "phase": 1, '
                        '"actor": "a", "kind": "warning", "payload": {}}\nnot json\n')
        with pytest.raises(ValueError, match="bad trace record"):
            load_trace(str(path))


DATA = Path(__file__).parent / "data"
SCRIPTED = ("two_stage", "folded_cascode")

# sha256 of the scripted sessions' artifacts, written by the asdict-based
# serialisation (numpy 2.4 / scipy 1.17 OpenBLAS on x86-64; another BLAS
# kernel may move the last bits of a float, so check the oracle test first)
ARTIFACT_SHA256 = {
    "two_stage": {
        "trace.jsonl": "fd08365b8444f26a5f8a69c8cb5ff09a9f9d1f68057a3b5153fac95a70422a88",
        "report.md": "e7ce9d4249671d1efe0be976197d67ac232d162d6ac358e253125a6cf9187319",
        "best_point.json": "81f9c1cf7f402c659e70e1916e099936397f880abf505d9db80660f3b0ba029b",
        "fom_series.csv": "d5acd06507d70da74dbe82b045ccffb3b757597ee215c90dc4017dff9a20490e",
    },
    "folded_cascode": {
        "trace.jsonl": "4f078dc3b490c10788c9fb54c85c24b174fb813f7f5dd12900abee4248e63d8b",
        "report.md": "55679679c088ec5ce020bfecabeb3793a47874d4c8062256fc70bc85c64905ab",
        "best_point.json": "4941486139ea54a3d609a7cf464bd229e90999f10bd2d355bb74fad090b81c51",
        "fom_series.csv": "dc08a24c38ebf4dc531031bdc693e58f13049f4a08cd8cf2b45bb5a11eedaefd",
    },
}


@pytest.fixture(scope="module")
def scripted_runs(tmp_path_factory):
    """Both scripted sessions, run once through the CLI: name -> (out_dir, events)."""
    logs = []

    class KeptTraceLog(TraceLog):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            logs.append(self)

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "TraceLog", KeptTraceLog)
        for name in SCRIPTED:
            out_dir = tmp_path_factory.mktemp(name)
            code = cli.main(["run", str(DATA / f"{name}_run.yaml"), "--output-dir", str(out_dir)])
            assert code == 0
            runs[name] = (out_dir, logs[-1].events)
    return runs


class TestScriptedBytes:
    @pytest.mark.parametrize("name", SCRIPTED)
    def test_lines_equal_asdict_serialisation(self, scripted_runs, name):
        out_dir, events = scripted_runs[name]
        lines = (out_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(events) > 0
        for line, event in zip(lines, events):
            assert line == json.dumps(dataclasses.asdict(event), sort_keys=True)

    @pytest.mark.parametrize("name", SCRIPTED)
    def test_artifacts_hash_as_pinned(self, scripted_runs, name):
        out_dir, _ = scripted_runs[name]
        digests = {
            artifact: hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
            for artifact in ARTIFACT_SHA256[name]
        }
        assert digests == ARTIFACT_SHA256[name]


def _budget(log, phase, counter, delta, total):
    log.record(phase, "engine", "budget", {"counter": counter, "delta": delta, "total": total})


class TestAccounting:
    def test_empty_run_all_zeros(self):
        acc = summarize_accounting([])
        assert acc == {
            "llm_calls": 0,
            "opt_calls": 0,
            "dc_sims": 0,
            "full_sims_llm": 0,
            "full_sims_opt": 0,
            "full_sims_total": 0,
        }

    def test_fold_matches_sums_and_total_identity(self):
        log = TraceLog()
        for _ in range(34):
            _budget(log, 1, "llm_calls", 1, 0)
        for _ in range(6):
            _budget(log, 2, "dc_sims", 1, 0)
        for _ in range(9):
            _budget(log, 3, "full_sims_llm", 1, 0)
        acc = summarize_accounting(log.events)
        assert (acc["llm_calls"], acc["opt_calls"], acc["dc_sims"]) == (34, 0, 6)
        assert (acc["full_sims_llm"], acc["full_sims_opt"], acc["full_sims_total"]) == (9, 0, 9)

    def test_total_splits_llm_and_optimizer(self):
        log = TraceLog()
        _budget(log, 4, "full_sims_llm", 21, 21)
        _budget(log, 4, "full_sims_opt", 43, 43)
        _budget(log, 4, "opt_calls", 1, 1)
        acc = summarize_accounting(log.events)
        assert acc["full_sims_total"] == acc["full_sims_llm"] + acc["full_sims_opt"] == 64
        assert acc["opt_calls"] == 1


class TestFomSeries:
    def test_extracts_scored_sims_in_order(self):
        log = TraceLog()
        log.record(2, "engine", "sim_result", {"tool": "dc_sim", "ok": True})
        log.record(3, "engine", "sim_result", {"tool": "full_sim", "ok": True, "fom": 0.4})
        log.record(3, "engine", "sim_result", {"tool": "full_sim", "ok": True, "fom": 0.7})
        assert fom_series(log.events) == [(1, 0.4), (2, 0.7)]


class TestRenderReport:
    def test_empty_events_has_header_and_empty_sections(self):
        text = render_report([])
        assert text.startswith("# Sizing run report")
        for phase in (1, 2, 3, 4):
            assert f"## Phase {phase}" in text
        assert text.count("(no events)") == 4
        assert "| 0 | 0 | 0 | 0 | 0 | 0 |" in text

    def test_deterministic(self):
        log = TraceLog()
        log.record(1, "circuit_explainer", "rationale", {"text": "M1 is the tail."})
        assert render_report(log.events) == render_report(log.events)

    def test_narrative_contains_verbatim_rationale_diff_metrics_fom(self):
        log = TraceLog()
        rationale = "Widen W1 to raise gm; gain is 6 dB short."
        log.record(3, "reasoning_sizer", "rationale", {"text": rationale})
        log.record(
            3,
            "engine",
            "sim_result",
            {
                "tool": "full_sim",
                "source": "reasoning_sizer",
                "point": {"W1": 1e-5, "L1": 2e-7},
                "ok": True,
                "metrics": {"gain_db": 52.1},
                "fom": 0.81,
            },
        )
        log.record(
            3,
            "engine",
            "sim_result",
            {
                "tool": "full_sim",
                "source": "reasoning_sizer",
                "point": {"W1": 2e-5, "L1": 2e-7},
                "ok": True,
                "metrics": {"gain_db": 58.7},
                "fom": 0.97,
            },
        )
        text = render_report(log.events)
        assert rationale in text  # stored and rendered verbatim
        assert "W1 = 1e-05" in text  # first point listed in full
        assert "W1: 1e-05 -> 2e-05" in text  # later points as diffs
        assert "L1: " not in text.split("Step 2")[1]  # unchanged param not in diff
        assert "Figure of merit: 0.97" in text
        assert "gain_db = 58.7" in text

    def test_failed_sim_rendered_as_failure(self):
        log = TraceLog()
        log.record(
            2,
            "engine",
            "sim_result",
            {"tool": "dc_sim", "point": {"W1": 1e-5}, "ok": False, "error": "did not converge"},
        )
        text = render_report(log.events)
        assert "Simulation failed: did not converge" in text

    def test_zero_optimizer_accounting_row(self):
        log = TraceLog()
        _budget(log, 3, "full_sims_llm", 9, 9)
        _budget(log, 1, "llm_calls", 34, 34)
        _budget(log, 2, "dc_sims", 6, 6)
        text = render_report(log.events)
        assert "| 34 | 0 | 6 | 9 | 0 | 9 |" in text


class TestParallelOrdering:
    def test_optimizer_evaluations_record_in_submission_order(self):
        space = ParameterSpace(entries=(SpaceEntry("x", 0.0, 1.0), SpaceEntry("y", 0.0, 1.0)))
        req = OptimizerRequest(space=space, budget=16, algorithm="de", seed=7)
        log = TraceLog()

        def on_evaluation(ev):
            log.record(4, "optimizer", "sim_result", {"point": ev.point, "fom": ev.fom})

        result = optimize(req, lambda p: p["x"], on_evaluation=on_evaluation)
        recorded = [e.payload["point"] for e in log.events]
        assert recorded == [ev.point for ev in result.evaluations]
        assert [e.seq for e in log.events] == list(range(1, len(recorded) + 1))
