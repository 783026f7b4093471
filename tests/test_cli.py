"""Tests for the command-line interface."""

import gc
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from amsizer.cli import main
from amsizer.simulator import NonConvergence

DATA = Path(__file__).parent / "data"

DIVIDER = """\
Two-resistor voltage divider
V1 in 0 DC 1.0
R1 in mid 1k
R2 mid 0 1k
.end
"""

RC_LOWPASS = """\
First-order RC low-pass
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 159.155n
.end
"""

CS_NETLIST = """\
One-transistor common-source test stage
VDD vdd 0 DC 1.8
VIN in 0 DC 0.9 AC 1
M1 out in 0 0 NMOS W={W1} L=1e-6
RL vdd out {RL}
.end
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_op_prints_node_voltages(self, tmp_path, capsys):
        netlist = tmp_path / "div.sp"
        netlist.write_text(DIVIDER)
        code, out, err = run_cli(capsys, "simulate", str(netlist))
        assert code == 0
        assert err == ""
        assert "node voltages (V):" in out
        assert "mid         0.5" in out
        assert "source power: 0.0005 W" in out

    def test_param_binding_with_si_suffixes(self, tmp_path, capsys):
        netlist = tmp_path / "cs.sp"
        netlist.write_text(CS_NETLIST)
        code, out, _ = run_cli(
            capsys, "simulate", str(netlist), "--param", "W1=10u", "--param", "RL=1k",
        )
        assert code == 0
        assert "transistor operating points:" in out
        assert "M1" in out

    def test_unbound_placeholder_fails(self, tmp_path, capsys):
        netlist = tmp_path / "cs.sp"
        netlist.write_text(CS_NETLIST)
        code, _, err = run_cli(capsys, "simulate", str(netlist), "--param", "W1=10u")
        assert code == 1
        assert "unbound placeholder" in err
        assert "RL" in err

    def test_bad_param_syntax_fails(self, tmp_path, capsys):
        netlist = tmp_path / "cs.sp"
        netlist.write_text(CS_NETLIST)
        code, _, err = run_cli(capsys, "simulate", str(netlist), "--param", "W1")
        assert code == 1
        assert "NAME=VALUE" in err

    def test_parse_error_exits_1(self, tmp_path, capsys):
        netlist = tmp_path / "bad.sp"
        netlist.write_text("A broken deck\nM1 out in\n.end\n")
        code, _, err = run_cli(capsys, "simulate", str(netlist))
        assert code == 1
        assert err.startswith("error:")

    def test_ac_emits_csv_and_metric_comment(self, tmp_path, capsys):
        netlist = tmp_path / "rc.sp"
        netlist.write_text(RC_LOWPASS)
        code, out, _ = run_cli(
            capsys, "simulate", str(netlist), "--ac",
            "--input", "V1", "--output", "out", "--f-lo", "10", "--f-hi", "1e5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "freq_hz,mag_db,phase_deg"
        assert lines[-1].startswith("# gain_db=")
        assert all(len(l.split(",")) == 3 for l in lines[1:-1])

    def test_ac_requires_input_and_output(self, tmp_path, capsys):
        netlist = tmp_path / "rc.sp"
        netlist.write_text(RC_LOWPASS)
        code, _, err = run_cli(capsys, "simulate", str(netlist), "--ac")
        assert code == 1
        assert "--ac requires --input" in err

    def test_tran_emits_csv(self, tmp_path, capsys):
        netlist = tmp_path / "rc.sp"
        netlist.write_text(RC_LOWPASS)
        code, out, _ = run_cli(
            capsys, "simulate", str(netlist), "--tran",
            "--input", "V1", "--output", "out",
            "--step-v", "1.0", "--t-stop", "1e-4", "--dt", "1e-5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_s,v_out"
        final_v = float(lines[-1].split(",")[1])
        assert final_v == pytest.approx(1.0 - 2.718281828 ** -0.6284, abs=0.05)

    @pytest.mark.parametrize("source", ["VNOPE", "C1"])
    def test_tran_input_must_be_a_source(self, tmp_path, capsys, source):
        # an unknown device, and a device that is not a source
        netlist = tmp_path / "rc.sp"
        netlist.write_text(RC_LOWPASS)
        code, out, err = run_cli(
            capsys, "simulate", str(netlist), "--tran",
            "--input", source, "--output", "out",
            "--step-v", "1.0", "--t-stop", "1e-4", "--dt", "1e-5",
        )
        assert (code, out) == (1, "")
        assert err == f"error: --input {source!r} is not an independent source\n"

    @pytest.mark.parametrize("param, message", [
        ("RL=0", "R1: R = 0 must be strictly positive"),
        ("CL=-1p", "C1: C = -1e-12 must be strictly positive"),
        ("W1=-10u", "M1: W = -1e-05 must be strictly positive"),
        ("L1=0", "M1: L = 0 must be strictly positive"),
    ])
    def test_non_positive_value_is_an_error(self, tmp_path, capsys, param, message):
        netlist = tmp_path / "amp.sp"
        netlist.write_text(
            "Amp test\nVDD vdd 0 1.8\nVIN in 0 DC 0.7 AC 1\n"
            "M1 out in 0 0 NMOS W={W1} L={L1}\nR1 vdd out {RL}\nC1 out 0 {CL}\n"
        )
        point = {"W1": "10u", "L1": "1u", "RL": "1k", "CL": "1p"}
        point.update([param.split("=")])
        args = [arg for name, value in point.items() for arg in ("--param", f"{name}={value}")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "simulate", str(netlist), *args, "--ac", "--input", "VIN", "--output", "out",
            )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_readme_transient_command_takes_si_suffixes(self, tmp_path, capsys):
        netlist = tmp_path / "my_amp.sp"
        netlist.write_text(
            "Single-stage amplifier with a load cap\n"
            "VDD vdd 0 DC 1.8\n"
            "VIN in 0 DC 0.7 AC 1\n"
            "M1 out in 0 0 NMOS W={W1} L=1u\n"
            "RL vdd out 5k\n"
            "CC out 0 {CC}\n"
            ".end\n"
        )
        code, out, err = run_cli(
            capsys, "simulate", str(netlist), "--param", "W1=8u", "--param", "CC=3p",
            "--tran", "--input", "VIN", "--output", "out",
            "--step-v", "0.1", "--t-stop", "1u", "--dt", "1n",
        )
        assert (code, err) == (0, "")
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert len(rows) == 1001
        assert float(rows[-1][0]) == pytest.approx(1e-6)
        # an inverting stage: a positive input step pulls the output down
        assert float(rows[-1][1]) < float(rows[0][1])

    def test_bad_numeric_option_is_a_usage_error(self, tmp_path, capsys):
        netlist = tmp_path / "rc.sp"
        netlist.write_text(RC_LOWPASS)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(netlist), "--ac", "--f-lo", "{x}"])
        assert exc.value.code == 2
        assert "argument --f-lo: expected a number, got '{x}'" in capsys.readouterr().err


class TestRun:
    def test_two_stage_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "run", str(DATA / "two_stage_run.yaml"), "--output-dir", str(out_dir),
        )
        assert code == 0
        assert "status: success" in out
        assert "llm_calls: 34" in out
        assert "full_sims_total: 9" in out

        best = json.loads((out_dir / "best_point.json").read_text())
        assert best["status"] == "success"
        assert best["best_fom"] == 1.0
        assert best["accounting"]["llm_calls"] == 34
        assert best["best_point"]["CC"] == pytest.approx(3e-12)

        series = (out_dir / "fom_series.csv").read_text().splitlines()
        assert series[0] == "evaluation,fom"
        assert len(series) == 10  # header + 9 scored full sims
        assert series[-1] == "9,1"

        report = (out_dir / "report.md").read_text()
        assert report.startswith("# Sizing run report")
        assert "| 34 | 0 | 6 | 9 | 0 | 9 |" in report
        assert (out_dir / "trace.jsonl").exists()

    def test_report_subcommand_matches_report_file(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", str(DATA / "two_stage_run.yaml"), "--output-dir", str(out_dir))
        code, out, _ = run_cli(capsys, "report", str(out_dir / "trace.jsonl"))
        assert code == 0
        assert out == (out_dir / "report.md").read_text()

    def test_run_is_reproducible(self, tmp_path, capsys):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "run", str(DATA / "two_stage_run.yaml"), "--output-dir", str(dir_a))
        run_cli(capsys, "run", str(DATA / "two_stage_run.yaml"), "--output-dir", str(dir_b))
        assert (dir_a / "trace.jsonl").read_bytes() == (dir_b / "trace.jsonl").read_bytes()
        assert (dir_a / "report.md").read_bytes() == (dir_b / "report.md").read_bytes()

    def test_malformed_config_exits_1_with_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("netlist: missing.sp\n")
        code, _, err = run_cli(capsys, "run", str(cfg))
        assert code == 1
        assert "netlist: file not found" in err

    def test_malformed_scenario_exits_1_with_field(self, tmp_path, capsys):
        (tmp_path / "cs.sp").write_text(CS_NETLIST)
        (tmp_path / "scenario.yaml").write_text("responses: [unclosed\n")
        (tmp_path / "run.yaml").write_text(
            "netlist: cs.sp\n"
            "parameters:\n"
            "  - {name: W1, lo: 1e-6, hi: 1e-4, unit: m, scale: log}\n"
            "  - {name: RL, lo: 100.0, hi: 1.0e6, unit: ohm, scale: log}\n"
            "specs:\n"
            "  - {metric: gain_db, direction: \">=\", target: 100, hardness: hard}\n"
            "analysis:\n"
            "  ac: {input_source: VIN, output_net: out}\n"
            "backend: {kind: scripted, scenario: scenario.yaml}\n"
        )
        code, _, err = run_cli(capsys, "run", str(tmp_path / "run.yaml"))
        assert code == 1
        assert err.startswith("error: backend.scenario: ")
        assert "scenario.yaml: scenario is not valid YAML" in err
        assert "Traceback" not in err

    def test_run_leaves_nothing_unclosed(self, tmp_path, capsys, monkeypatch):
        # an unclosed file warns from its finalizer, where the error filter
        # can only hand the exception to sys.unraisablehook
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            code, _, _ = run_cli(
                capsys, "run", str(DATA / "two_stage_run.yaml"),
                "--output-dir", str(tmp_path / "out"),
            )
            gc.collect()
        assert code == 0
        assert [repr(u.exc_value) for u in unraisable] == []

    def test_capped_run_exits_2_when_unmet(self, tmp_path, capsys):
        """Zeroed phase caps: phase 1 only, no sims, status incomplete."""
        (tmp_path / "cs.sp").write_text(CS_NETLIST)
        responses = [
            {"agent": "circuit_explainer",
             "text": json.dumps({"explanation": "one common-source stage"})},
            {"agent": "matching_finder", "text": json.dumps({"groups": []})},
            {"agent": "dc_goal_setter",
             "text": json.dumps({"goals": {"M1": "saturation"}})},
            {"agent": "initial_designer",
             "text": json.dumps({"parameters": {"W1": 1e-5, "RL": 1e3},
                                 "rationale": "start"})},
        ]
        (tmp_path / "scenario.yaml").write_text(
            json.dumps({"responses": responses})  # JSON is valid YAML
        )
        (tmp_path / "run.yaml").write_text(
            "netlist: cs.sp\n"
            "parameters:\n"
            "  - {name: W1, lo: 1e-6, hi: 1e-4, unit: m, scale: log}\n"
            "  - {name: RL, lo: 100.0, hi: 1.0e6, unit: ohm, scale: log}\n"
            "specs:\n"
            "  - {metric: gain_db, direction: \">=\", target: 100, hardness: hard}\n"
            "analysis:\n"
            "  ac: {input_source: VIN, output_net: out}\n"
            "backend: {kind: scripted, scenario: scenario.yaml}\n"
            "caps: {phase2_max_cycles: 0, phase3_max_full_sims: 0, phase4_max_cycles: 0}\n"
        )
        code, out, _ = run_cli(
            capsys, "run", str(tmp_path / "run.yaml"),
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert "status: incomplete" in out
        assert "llm_calls: 4" in out
        assert "dc_sims: 0" in out
        best = json.loads((tmp_path / "out" / "best_point.json").read_text())
        assert best["status"] == "incomplete"
        assert best["best_fom"] is None


class TestOptimize:
    def test_de_baseline_emits_best_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", str(DATA / "two_stage_run.yaml"),
            "--algo", "de", "--budget", "25",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["algorithm"] == "de"
        assert doc["budget_used"] == 25
        assert 0.0 <= doc["best_fom"] <= 1.0
        assert set(doc["best_point"]) == {
            "W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8", "L", "CC",
        }

    def test_budget_zero_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize", str(DATA / "two_stage_run.yaml"),
            "--algo", "de", "--budget", "0",
        )
        assert code == 1
        assert "budget must be >= 1" in err

    def test_fixed_seed_reproducible(self, capsys):
        args = ("optimize", str(DATA / "two_stage_run.yaml"), "--algo", "bo", "--budget", "12")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_failed_transient_fails_the_evaluation(self, tmp_path, capsys, monkeypatch):
        calls = []

        def no_transient(*args, **kwargs):
            calls.append(1)
            raise NonConvergence(1e-3, 50, "transient step 1 (t = 1e-09 s)")

        monkeypatch.setattr("amsizer.workflow.solve_transient", no_transient)
        config = (DATA / "two_stage_run.yaml").read_text().replace(
            "netlist: two_stage.sp", f"netlist: {DATA / 'two_stage.sp'}"
        ).replace(
            "scenario: two_stage_scenario.yaml", f"scenario: {DATA / 'two_stage_scenario.yaml'}"
        ).replace(
            "  ac: {input_source: VIN, output_net: out}\n",
            "  ac: {input_source: VIN, output_net: out}\n"
            "  tran: {source: VIN, step_v: 0.1, t_stop: 1e-6, dt: 1e-9}\n",
        )
        path = tmp_path / "run.yaml"
        path.write_text(config)
        code, out, _ = run_cli(capsys, "optimize", str(path), "--algo", "de", "--budget", "4")
        assert code == 0
        doc = json.loads(out)
        assert calls
        assert doc["budget_used"] == 4
        assert doc["failed_evaluations"] == 4


class TestReport:
    def test_missing_trace_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "report", "/nonexistent/trace.jsonl")
        assert code == 1
        assert err.startswith("error:")

    def test_empty_trace_renders_empty_sections(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        code, out, _ = run_cli(capsys, "report", str(trace))
        assert code == 0
        assert out.startswith("# Sizing run report")
        assert "## Accounting" in out

    @pytest.mark.parametrize("payload, message", [
        ({"counter": "llm_tokens", "delta": 1}, "budget event 3: unknown budget counter 'llm_tokens'"),
        ({"counter": "llm_calls"}, "budget event 3 has no 'delta'"),
        ({"delta": 1}, "budget event 3 has no 'counter'"),
    ])
    def test_bad_budget_event_exits_1(self, tmp_path, capsys, payload, message):
        event = {"seq": 3, "timestamp": 0.0, "phase": 1, "actor": "engine",
                 "kind": "budget", "payload": payload}
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(event) + "\n")
        code, out, err = run_cli(capsys, "report", str(trace))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("field, value, message", [
        (None, True, "payload must be an object, got true"),
        ("point", 3, "sim_result 'point' must be an object, got 3"),
        ("regions", "M1", "sim_result 'regions' must be an object, got \"M1\""),
    ])
    def test_malformed_sim_result_exits_1(self, tmp_path, capsys, field, value, message):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", str(DATA / "two_stage_run.yaml"), "--output-dir", str(out_dir))
        lines = (out_dir / "trace.jsonl").read_text().splitlines()
        # the first scored simulation, which has a point, regions and metrics
        line_no = next(i for i, line in enumerate(lines, start=1)
                       if '"kind": "sim_result"' in line and '"fom"' in line)
        doc = json.loads(lines[line_no - 1])
        if field is None:
            doc["payload"] = value
        else:
            doc["payload"][field] = value
        lines[line_no - 1] = json.dumps(doc)
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "report", str(trace))
        assert (code, out) == (1, "")
        assert err == f"error: {trace}:{line_no}: bad trace record: {message}\n"


class TestEntryPoint:
    def test_command_patched_after_a_first_call_runs(self, tmp_path, capsys, monkeypatch):
        netlist = tmp_path / "div.sp"
        netlist.write_text(DIVIDER)
        assert run_cli(capsys, "simulate", str(netlist))[0] == 0
        seen = []
        monkeypatch.setattr("amsizer.cli.cmd_run", lambda args: seen.append(args.config) or 7)
        assert main(["run", "patched.yaml"]) == 7
        assert seen == ["patched.yaml"]

    def test_module_invocation(self, tmp_path):
        netlist = tmp_path / "div.sp"
        netlist.write_text(DIVIDER)
        proc = subprocess.run(
            [sys.executable, "-m", "amsizer.cli", "simulate", str(netlist)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "mid         0.5" in proc.stdout

    def test_start_up_loads_neither_scipy_stats_nor_requests(self):
        # a fresh interpreter: pytest's own process may have imported both
        script = (
            "import sys\n"
            "import amsizer.cli\n"
            "from amsizer.config import build_backend, load_config\n"
            "from amsizer.llm import HttpBackend, ScriptedBackend\n"
            "heavy = ('scipy.stats', 'requests')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            f"backend = build_backend(load_config({str(DATA / 'two_stage_run.yaml')!r}))\n"
            "assert isinstance(backend, ScriptedBackend)\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "HttpBackend(endpoint='http://localhost:9/v1/chat/completions')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        # the last line shows the check sees `requests` once the HTTP backend loads it
        assert proc.stdout.splitlines() == ["[]", "[]", "['requests']"]
