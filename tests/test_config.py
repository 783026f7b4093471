"""Tests for the YAML run-configuration loader."""

from pathlib import Path

import pytest
import yaml

from amsizer.config import (
    ConfigError,
    build_backend,
    build_state,
    load_config,
)
from amsizer.llm import HttpBackend, ScriptedBackend, load_yaml
from amsizer.state import TranPlan
from amsizer.workflow import PhaseCaps

DATA = Path(__file__).parent / "data"
YAML_FILES = sorted(DATA.glob("*.yaml")) + sorted(
    (Path(__file__).parent.parent / "perfbench" / "configs").glob("*.yaml")
)

CS_NETLIST = """\
One-transistor common-source test stage
VDD vdd 0 DC 1.8
VIN in 0 DC 0.9 AC 1
M1 out in 0 0 NMOS W={W1} L=1e-6
RL vdd out {RL}
.end
"""

BASE_CONFIG = """\
netlist: cs.sp
parameters:
  - {{name: W1, lo: 1e-6, hi: 1e-4, unit: m, scale: log}}
  - {{name: RL, lo: 100.0, hi: 1.0e6, unit: ohm, scale: log}}
specs:
  - {{metric: gain_db, direction: ">=", target: 0.5, hardness: hard}}
analysis:
  ac: {{input_source: VIN, output_net: out}}
backend: {{kind: scripted, scenario: scenario.yaml}}
{extra}"""


def write_run(tmp_path, extra="", config=None, netlist=CS_NETLIST):
    (tmp_path / "cs.sp").write_text(netlist)
    (tmp_path / "scenario.yaml").write_text(
        'responses:\n  - {agent: "*", text: "{}", repeat: 50}\n'
    )
    path = tmp_path / "run.yaml"
    path.write_text(config if config is not None else BASE_CONFIG.format(extra=extra))
    return str(path)


class TestHappyPath:
    def test_minimal_config_loads(self, tmp_path):
        cfg = load_config(write_run(tmp_path))
        assert cfg.space.names == ("W1", "RL")
        assert cfg.specs[0].metric == "gain_db"
        assert cfg.ac_plan.input_source == "VIN"
        assert cfg.ac_plan.output_net == "out"
        assert cfg.tran_plan is None
        assert cfg.matching == ()
        assert cfg.backend.kind == "scripted"
        assert cfg.caps == PhaseCaps()
        assert cfg.seed == 0

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        cfg = load_config(write_run(tmp_path))
        assert cfg.netlist_path == str(tmp_path / "cs.sp")
        assert cfg.backend.scenario_path == str(tmp_path / "scenario.yaml")
        assert cfg.output_dir == str(tmp_path / "out")

    def test_all_optional_sections(self, tmp_path):
        netlist = CS_NETLIST.replace(
            "M1 out in 0 0 NMOS W={W1} L=1e-6\n",
            "M1 out in 0 0 NMOS W={W1} L=1e-6\n"
            "M2 out in 0 0 NMOS W={W2} L=1e-6\n",
        )
        config = BASE_CONFIG.format(extra=(
            "matching:\n"
            "  - {kind: equal, members: [W1, W2], rationale: parallel devices}\n"
            "model_cards:\n"
            "  NMOS: {vth: 0.5}\n"
            "caps: {phase2_max_cycles: 3}\n"
            "seed: 7\n"
            "history_tail: 4\n"
            "output_dir: results\n"
        )).replace(
            "parameters:\n",
            "parameters:\n  - {name: W2, lo: 1e-6, hi: 1e-4, unit: m, scale: log}\n",
        )
        cfg = load_config(write_run(tmp_path, config=config, netlist=netlist))
        assert cfg.matching[0].members == ("W1", "W2")
        assert cfg.model_cards["NMOS"].vth == 0.5
        assert cfg.model_cards["NMOS"].kprime == 200e-6  # default kept
        assert cfg.model_cards["PMOS"].vth == 0.4  # untouched default
        assert cfg.caps.phase2_max_cycles == 3
        assert cfg.caps.phase3_max_full_sims == 20  # default kept
        assert cfg.seed == 7
        assert cfg.history_tail == 4
        assert cfg.output_dir == str(tmp_path / "results")

    def test_tran_section(self, tmp_path):
        extra = ""
        config = BASE_CONFIG.format(extra=extra).replace(
            "analysis:\n  ac: {input_source: VIN, output_net: out}\n",
            "analysis:\n"
            "  ac: {input_source: VIN, output_net: out}\n"
            "  tran: {source: VIN, step_v: 0.1, t_stop: 1e-6, dt: 1e-9}\n",
        )
        cfg = load_config(write_run(tmp_path, config=config))
        assert cfg.tran_plan == TranPlan(source="VIN", step_v=0.1, t_stop=1e-6, dt=1e-9)

    def test_exponent_strings_accepted_as_numbers(self, tmp_path):
        # YAML 1.1 reads 1e-6 as a string; the loader must still take it
        cfg = load_config(write_run(tmp_path))
        assert cfg.space.entry("W1").lo == 1e-6
        assert cfg.space.entry("RL").hi == 1e6

    def test_build_state(self, tmp_path):
        cfg = load_config(write_run(tmp_path))
        state = build_state(cfg)
        assert state.circuit.params == ("W1", "RL")
        assert state.space is cfg.space
        assert list(state.specs) == list(cfg.specs)
        assert state.ac_plan == cfg.ac_plan
        assert state.sizing_history == []
        assert state.phase == 1

    def test_build_scripted_backend(self, tmp_path):
        cfg = load_config(write_run(tmp_path))
        backend = build_backend(cfg)
        assert isinstance(backend, ScriptedBackend)
        assert backend.remaining == 50

    def test_build_http_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEST_SIZER_KEY", "sk-test")
        config = BASE_CONFIG.format(extra="").replace(
            "backend: {kind: scripted, scenario: scenario.yaml}",
            "backend: {kind: http, endpoint: 'https://chat.example/v1',"
            " api_key_env: TEST_SIZER_KEY, model: test-model}",
        )
        cfg = load_config(write_run(tmp_path, config=config))
        backend = build_backend(cfg)
        assert isinstance(backend, HttpBackend)
        assert backend.endpoint == "https://chat.example/v1"
        assert backend.api_key == "sk-test"
        assert backend.model_id == "test-model"

    def test_http_backend_missing_env_var(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TEST_SIZER_KEY", raising=False)
        config = BASE_CONFIG.format(extra="").replace(
            "backend: {kind: scripted, scenario: scenario.yaml}",
            "backend: {kind: http, endpoint: 'https://chat.example/v1',"
            " api_key_env: TEST_SIZER_KEY}",
        )
        cfg = load_config(write_run(tmp_path, config=config))
        with pytest.raises(ConfigError, match="TEST_SIZER_KEY"):
            build_backend(cfg)


class TestScenarioFixtures:
    """The checked-in run configs must load and match their test constants."""

    def test_two_stage_fixture(self):
        cfg = load_config(str(DATA / "two_stage_run.yaml"))
        assert len(cfg.space.entries) == 10
        assert [s.metric for s in cfg.specs] == [
            "gain_db", "ugbw_hz", "phase_margin_deg", "power_w",
        ]
        assert cfg.ac_plan.input_source == "VIN"
        backend = build_backend(cfg)
        assert backend.remaining == 34

    def test_folded_cascode_fixture(self):
        cfg = load_config(str(DATA / "folded_cascode_run.yaml"))
        assert len(cfg.space.entries) == 10
        assert cfg.ac_plan.input_source == "VIP"
        backend = build_backend(cfg)
        assert backend.remaining == 54


class TestYamlLoader:
    @pytest.mark.parametrize("path", YAML_FILES, ids=lambda p: p.name)
    def test_load_yaml_equals_safe_load(self, path):
        text = path.read_text(encoding="utf-8")
        assert load_yaml(text) == yaml.safe_load(text)

    def test_load_config_without_libyaml(self, monkeypatch):
        expected = load_config(str(DATA / "two_stage_run.yaml"))
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_config(str(DATA / "two_stage_run.yaml")) == expected


class TestDiagnostics:
    """Every invalid config produces a named-field message, never a crash."""

    def check(self, tmp_path, match, **kw):
        with pytest.raises(ConfigError, match=match):
            load_config(write_run(tmp_path, **kw))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent/run.yaml")

    def test_invalid_yaml(self, tmp_path):
        self.check(tmp_path, "not valid YAML", config="netlist: [unclosed\n")

    def test_non_mapping_document(self, tmp_path):
        self.check(tmp_path, "config: expected a mapping", config="- a\n- b\n")

    def test_unknown_top_level_field(self, tmp_path):
        self.check(tmp_path, r"config: unknown field\(s\) frobnicate",
                   extra="frobnicate: 1\n")

    def test_netlist_file_missing(self, tmp_path):
        self.check(tmp_path, "netlist: file not found",
                   config=BASE_CONFIG.format(extra="").replace("cs.sp", "no.sp"))

    def test_netlist_parse_error_is_named(self, tmp_path):
        self.check(tmp_path, "netlist:", netlist="Title\nM1 out in\n.end\n")

    def test_placeholder_without_range(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace(
            "  - {name: RL, lo: 100.0, hi: 1.0e6, unit: ohm, scale: log}\n", "")
        self.check(tmp_path, "parameters: netlist placeholder.*RL", config=config)

    def test_range_without_placeholder(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace(
            "parameters:\n",
            "parameters:\n  - {name: CX, lo: 1.0, hi: 2.0}\n")
        self.check(tmp_path, "parameters: no netlist placeholder named: CX", config=config)

    def test_linear_range_reaching_zero_for_a_positive_slot(self, tmp_path):
        # every point with RL = 0 would fail to bind
        config = BASE_CONFIG.format(extra="").replace(
            "{name: RL, lo: 100.0, hi: 1.0e6, unit: ohm, scale: log}",
            "{name: RL, lo: 0, hi: 1.0e6, unit: ohm}")
        self.check(tmp_path, "parameters: parameter 'RL' sets R of device RL, which must be "
                   "strictly positive, but its range starts at lo = 0", config=config)

    def test_nonpositive_range_for_a_source_value_loads(self, tmp_path):
        netlist = CS_NETLIST.replace("DC 0.9 AC 1", "DC {VB} AC 1")
        config = BASE_CONFIG.format(extra="").replace(
            "parameters:\n", "parameters:\n  - {name: VB, lo: -0.5, hi: 1.0}\n")
        cfg = load_config(write_run(tmp_path, config=config, netlist=netlist))
        assert cfg.space.entry("VB").lo == -0.5

    def test_bad_parameter_range(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace("lo: 1e-6, hi: 1e-4", "lo: 1e-4, hi: 1e-6")
        self.check(tmp_path, "parameters: .*W1.*lo must be < hi", config=config)

    def test_parameter_unknown_field(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace(
            "{name: W1, lo: 1e-6, hi: 1e-4, unit: m, scale: log}",
            "{name: W1, lo: 1e-6, hi: 1e-4, units: m}")
        self.check(tmp_path, r"parameters\[0\]: unknown field\(s\) units", config=config)

    def test_missing_specs(self, tmp_path):
        config = "\n".join(
            l for l in BASE_CONFIG.format(extra="").splitlines()
            if "specs" not in l and "gain_db" not in l
        ) + "\n"
        self.check(tmp_path, "specs: required field is missing", config=config)

    def test_empty_specs(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace(
            "specs:\n  - {metric: gain_db, direction: \">=\", target: 0.5, hardness: hard}\n",
            "specs: []\n")
        self.check(tmp_path, "specs: at least one", config=config)

    def test_duplicate_spec_metric(self, tmp_path):
        spec = '  - {metric: gain_db, direction: ">=", target: 0.5, hardness: hard}\n'
        config = BASE_CONFIG.format(extra="").replace(spec, spec + spec.replace("0.5", "0.7"))
        self.check(tmp_path, "specs: more than one spec for metric 'gain_db'", config=config)

    def test_unknown_metric(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace("gain_db", "gainz")
        self.check(tmp_path, r"specs\[0\]: unknown metric", config=config)

    def test_bad_direction(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace('">="', '"=="')
        self.check(tmp_path, r"specs\[0\]: direction", config=config)

    def test_unknown_ac_input_source(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace("input_source: VIN", "input_source: VX")
        self.check(tmp_path, "analysis.ac.input_source: no voltage source named 'VX'",
                   config=config)

    def test_unknown_ac_output_net(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace("output_net: out", "output_net: nowhere")
        self.check(tmp_path, "analysis.ac.output_net: no net named 'nowhere'", config=config)

    def test_bad_tran_source(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace(
            "  ac: {input_source: VIN, output_net: out}\n",
            "  ac: {input_source: VIN, output_net: out}\n"
            "  tran: {source: IB, step_v: 0.1, t_stop: 1e-6, dt: 1e-9}\n")
        self.check(tmp_path, "analysis.tran.source: no voltage source named 'IB'",
                   config=config)

    def test_bad_ac_band(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace(
            "ac: {input_source: VIN, output_net: out}",
            "ac: {input_source: VIN, output_net: out, f_lo: 1e6, f_hi: 10.0}")
        self.check(tmp_path, "analysis.ac: need 0 < f_lo < f_hi", config=config)

    def test_matching_names_unknown_parameter(self, tmp_path):
        self.check(tmp_path, "matching:",
                   extra="matching:\n  - {kind: equal, members: [W1, WX]}\n")

    def _two_stage_with_matching(self, tmp_path, matching):
        config = (DATA / "two_stage_run.yaml").read_text()
        config = config.replace("two_stage.sp", "cs.sp").replace("two_stage_scenario", "scenario")
        return write_run(tmp_path, config=config + "matching:\n" + matching,
                         netlist=(DATA / "two_stage.sp").read_text())

    def test_matching_overlapping_groups(self, tmp_path):
        path = self._two_stage_with_matching(
            tmp_path,
            "  - {kind: equal, members: [W1, W2]}\n"
            "  - {kind: ratio, members: [W2, W3], ratios: [1, 2]}\n",
        )
        with pytest.raises(ConfigError, match=r"matching: .*\['W2'\] already in another group"):
            load_config(path)

    def test_matching_infeasible_ratio_group(self, tmp_path):
        # W1 = 2000 * L >= 4e-4 leaves W1's range [1e-6, 2e-4]
        path = self._two_stage_with_matching(
            tmp_path, "  - {kind: ratio, members: [L, W1], ratios: [1, 2000]}\n"
        )
        with pytest.raises(ConfigError, match="cannot be satisfied inside the bounds"):
            load_config(path)

    def test_readme_matching_example_loads(self, tmp_path):
        path = self._two_stage_with_matching(
            tmp_path,
            "  - {kind: equal, members: [W1, W2]}\n"
            "  - {kind: ratio, members: [W3, W4], ratios: [1, 4]}\n",
        )
        assert [g.kind for g in load_config(path).matching] == ["equal", "ratio"]

    def test_bad_backend_kind(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace("kind: scripted", "kind: psychic")
        self.check(tmp_path, "backend.kind: expected 'scripted' or 'http'", config=config)

    def test_scripted_scenario_missing(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace("scenario.yaml", "ghost.yaml")
        self.check(tmp_path, "backend.scenario: file not found", config=config)

    def test_http_requires_endpoint(self, tmp_path):
        config = BASE_CONFIG.format(extra="").replace(
            "backend: {kind: scripted, scenario: scenario.yaml}",
            "backend: {kind: http}")
        self.check(tmp_path, "backend.endpoint: required field is missing", config=config)

    def test_caps_unknown_field(self, tmp_path):
        self.check(tmp_path, r"caps: unknown field\(s\) phase9_max",
                   extra="caps: {phase9_max: 1}\n")

    def test_caps_negative(self, tmp_path):
        self.check(tmp_path, "caps: phase2_max_cycles must be >= 0",
                   extra="caps: {phase2_max_cycles: -1}\n")

    def test_model_cards_unknown_field(self, tmp_path):
        self.check(tmp_path, "model_cards.NMOS: unknown field",
                   extra="model_cards:\n  NMOS: {vth_volts: 0.5}\n")

    def test_model_card_needs_kind_for_custom_name(self, tmp_path):
        self.check(tmp_path, "model_cards.SLOW_N.kind: required",
                   extra="model_cards:\n  SLOW_N: {vth: 0.5}\n")

    def test_parallelism_is_an_unknown_field(self, tmp_path):
        self.check(tmp_path, r"config: unknown field\(s\) parallelism", extra="parallelism: 1\n")

    def test_seed_must_be_integer(self, tmp_path):
        self.check(tmp_path, "config.seed: expected an integer", extra="seed: 1.5\n")

    @pytest.mark.parametrize("path, mutate, shown", [
        ("analysis.ac.f_hi", lambda c: c["analysis"]["ac"].update(f_hi=float("inf")), "inf"),
        ("model_cards.NMOS.vth", lambda c: c.update(model_cards={"NMOS": {"vth": float("nan")}}),
         "nan"),
        ("model_cards.NMOS.lam", lambda c: c.update(model_cards={"NMOS": {"lam": float("inf")}}),
         "inf"),
        ("analysis.tran.step_v", lambda c: c["analysis"].update(tran={
            "source": "VIN", "step_v": float("nan"), "t_stop": 1e-6, "dt": 1e-9}), "nan"),
        ("parameters[0].hi", lambda c: c["parameters"][0].update(hi=float("inf")), "inf"),
        ("analysis.ac.f_lo", lambda c: c["analysis"]["ac"].update(f_lo="nan"), "nan"),
    ], ids=["f_hi", "vth", "lam", "step_v", "hi", "f_lo_string"])
    def test_non_finite_number_is_rejected(self, tmp_path, path, mutate, shown):
        # a NaN or an infinity once loaded, and then failed every evaluation
        # or died in the frequency grid
        cfg = yaml.safe_load((DATA / "two_stage_run.yaml").read_text())
        cfg["netlist"] = str(DATA / "two_stage.sp")
        cfg["backend"]["scenario"] = str(DATA / "two_stage_scenario.yaml")
        mutate(cfg)
        run = tmp_path / "run.yaml"
        run.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError) as err:
            load_config(str(run))
        assert str(err.value) == f"{path}: expected a finite number, got {shown}"
