"""Tests for the append-only trace log, accounting fold, and report."""

import pytest

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
