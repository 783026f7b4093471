"""Tests for structured-output parsing, validation, and the retry ladder."""

import json

import pytest

from amsizer.agents import AGENTS
from amsizer.netlist import ParameterSpace, SpaceEntry
from amsizer.schema import (
    EnforcedOutput,
    SchemaContext,
    SchemaFailure,
    SchemaViolation,
    enforce_schema,
    parse_structured,
    schema_hint,
    validate,
)


@pytest.fixture
def ctx():
    space = ParameterSpace(
        entries=(
            SpaceEntry("W1", 1e-6, 1e-4, "m", "log"),
            SpaceEntry("W2", 1e-6, 1e-4, "m", "log"),
            SpaceEntry("L1", 1e-7, 1e-5, "m", "log"),
        )
    )
    return SchemaContext(space=space, mosfet_names=("M1", "M2"))


class TestParseStructured:
    def test_bare_object(self):
        assert parse_structured('{"a": 1}') == {"a": 1}

    def test_object_embedded_in_prose(self):
        text = 'Sure! Here is the plan:\n```json\n{"a": {"b": 2}}\n```\nHope that helps.'
        assert parse_structured(text) == {"a": {"b": 2}}

    def test_braces_inside_strings_do_not_confuse(self):
        text = 'note {"a": "odd { value }", "b": "esc \\" quote"} trailing {'
        assert parse_structured(text) == {"a": "odd { value }", "b": 'esc " quote'}

    def test_first_object_wins(self):
        assert parse_structured('{"first": 1} {"second": 2}') == {"first": 1}

    def test_no_object(self):
        with pytest.raises(SchemaViolation, match="no JSON object"):
            parse_structured("just words")

    def test_unclosed_object(self):
        with pytest.raises(SchemaViolation, match="never closed"):
            parse_structured('{"a": 1')

    def test_invalid_json_inside_braces(self):
        with pytest.raises(SchemaViolation, match="invalid JSON"):
            parse_structured("{'single': 'quotes'}")


class TestValidators:
    def test_every_schema_has_a_hint(self):
        for agent in AGENTS.values():
            assert "{" in schema_hint(agent.output_schema)

    def test_unknown_schema_id(self, ctx):
        with pytest.raises(KeyError):
            validate("nope", {}, ctx)

    def test_explanation_ok(self, ctx):
        payload, notes = validate("explanation", {"explanation": "M1 is the tail."}, ctx)
        assert payload == {"explanation": "M1 is the tail."}
        assert notes == ()

    def test_explanation_empty_rejected(self, ctx):
        with pytest.raises(SchemaViolation):
            validate("explanation", {"explanation": "   "}, ctx)

    def test_matching_ok(self, ctx):
        space = ParameterSpace(ctx.space.entries + (SpaceEntry("L2", 1e-7, 1e-5, "m", "log"),))
        doc = {
            "groups": [
                {"kind": "equal", "members": ["W1", "W2"]},
                {"kind": "ratio", "members": ["L1", "L2"], "ratios": [1, 2]},
            ]
        }
        payload, _ = validate("matching_groups", doc, SchemaContext(space, ctx.mosfet_names))
        assert len(payload["groups"]) == 2
        assert payload["groups"][0].kind == "equal"
        assert payload["groups"][1].ratios == (1.0, 2.0)

    def test_matching_empty_groups_allowed(self, ctx):
        payload, _ = validate("matching_groups", {"groups": []}, ctx)
        assert payload["groups"] == ()

    def test_matching_unknown_member_is_retryable(self, ctx):
        doc = {"groups": [{"kind": "equal", "members": ["W1", "W9"]}]}
        with pytest.raises(SchemaViolation, match="W9"):
            validate("matching_groups", doc, ctx)

    def test_matching_overlapping_groups_are_retryable(self, ctx):
        overlapping = {
            "groups": [
                {"kind": "equal", "members": ["W1", "W2"]},
                {"kind": "ratio", "members": ["L1", "W1"], "ratios": [1, 2]},
            ]
        }
        violations = []

        def reprompt(violation):
            violations.append(violation)
            return json.dumps({"groups": overlapping["groups"][:1]})

        out = enforce_schema(json.dumps(overlapping), "matching_groups", ctx, reprompt=reprompt)
        assert violations == ["matching group ['L1', 'W1']: ['W1'] already in another group"]
        assert out.attempts_used == 2
        assert [g.members for g in out.payload["groups"]] == [("W1", "W2")]

    def test_matching_infeasible_ratio_is_retryable(self, ctx):
        # W1 = 2000 * L1 <= 1e-4 needs L1 <= 5e-8, below L1's lower bound 1e-7
        doc = {"groups": [{"kind": "ratio", "members": ["L1", "W1"], "ratios": [1, 2000]}]}
        with pytest.raises(SchemaViolation, match="cannot be satisfied inside the bounds"):
            validate("matching_groups", doc, ctx)

    def test_matching_ratio_without_ratios(self, ctx):
        doc = {"groups": [{"kind": "ratio", "members": ["W1", "W2"]}]}
        with pytest.raises(SchemaViolation, match="ratios"):
            validate("matching_groups", doc, ctx)

    def test_dc_goals_ok(self, ctx):
        doc = {"goals": {"M1": "saturation", "M2": "triode"}}
        payload, _ = validate("dc_goals", doc, ctx)
        assert payload["goals"] == {"M1": "saturation", "M2": "triode"}

    def test_dc_goals_unknown_device(self, ctx):
        with pytest.raises(SchemaViolation, match="M7"):
            validate("dc_goals", {"goals": {"M7": "saturation"}}, ctx)

    def test_dc_goals_bad_region(self, ctx):
        with pytest.raises(SchemaViolation, match="linear"):
            validate("dc_goals", {"goals": {"M1": "linear"}}, ctx)

    def test_sizing_ok(self, ctx):
        doc = {"parameters": {"W1": 2e-5, "W2": 3e-5, "L1": 5e-7}, "rationale": "bigger gm"}
        payload, notes = validate("sizing_proposal", doc, ctx)
        assert payload["parameters"] == {"W1": 2e-5, "W2": 3e-5, "L1": 5e-7}
        assert payload["rationale"] == "bigger gm"
        assert notes == ()

    def test_sizing_missing_parameter_named_in_error(self, ctx):
        doc = {"parameters": {"W1": 2e-5, "W2": 3e-5}}
        with pytest.raises(SchemaViolation, match="L1"):
            validate("sizing_proposal", doc, ctx)

    def test_sizing_extra_parameter_rejected(self, ctx):
        doc = {"parameters": {"W1": 2e-5, "W2": 3e-5, "L1": 5e-7, "XX": 1.0}}
        with pytest.raises(SchemaViolation, match="XX"):
            validate("sizing_proposal", doc, ctx)

    def test_sizing_out_of_bounds_clamped_with_note(self, ctx):
        doc = {"parameters": {"W1": 5.0, "W2": 3e-5, "L1": 1e-9}}
        payload, notes = validate("sizing_proposal", doc, ctx)
        assert payload["parameters"]["W1"] == 1e-4
        assert payload["parameters"]["L1"] == 1e-7
        assert len(notes) == 2
        assert "W1" in notes[0] and "L1" in notes[1]

    def test_sizing_non_numeric_rejected(self, ctx):
        doc = {"parameters": {"W1": "wide", "W2": 3e-5, "L1": 5e-7}}
        with pytest.raises(SchemaViolation, match="number"):
            validate("sizing_proposal", doc, ctx)

    def test_sizing_nan_rejected(self, ctx):
        doc = json.loads('{"parameters": {"W1": 1e400, "W2": 3e-5, "L1": 5e-7}}')
        with pytest.raises(SchemaViolation, match="finite"):
            validate("sizing_proposal", doc, ctx)

    def test_dc_review_ok_and_string_discrepancy_normalized(self, ctx):
        doc = {"goals_met": False, "discrepancies": "M1 in triode", "feedback": "raise VGS"}
        payload, _ = validate("dc_review", doc, ctx)
        assert payload["goals_met"] is False
        assert payload["discrepancies"] == ("M1 in triode",)

    def test_dc_review_goals_met_must_be_bool(self, ctx):
        with pytest.raises(SchemaViolation, match="goals_met"):
            validate("dc_review", {"goals_met": "yes"}, ctx)

    def test_specs_review_tool_choice(self, ctx):
        payload, _ = validate(
            "specs_review", {"critique": "c", "feedback": "f", "next_tool": "dc_sim"}, ctx
        )
        assert payload["next_tool"] == "dc_sim"
        with pytest.raises(SchemaViolation, match="next_tool"):
            validate("specs_review", {"next_tool": "spice"}, ctx)

    def test_advisor_review_defaults(self, ctx):
        payload, _ = validate(
            "advisor_review", {"advise_optimizer": True, "next_tool": "full_sim"}, ctx
        )
        assert payload["stagnation"] is False
        assert payload["advise_optimizer"] is True

    def test_equipped_sizing_propose(self, ctx):
        doc = {
            "action": "propose",
            "parameters": {"W1": 2e-5, "W2": 3e-5, "L1": 5e-7},
            "rationale": "r",
        }
        payload, _ = validate("equipped_sizing", doc, ctx)
        assert payload["action"] == "propose"
        assert payload["parameters"]["W1"] == 2e-5

    def test_equipped_sizing_optimize(self, ctx):
        doc = {"action": "optimize", "optimizer_budget": 50, "algorithm": "de", "rationale": "r"}
        payload, _ = validate("equipped_sizing", doc, ctx)
        assert payload["optimizer_budget"] == 50
        assert payload["algorithm"] == "de"

    def test_equipped_sizing_optimize_defaults_algorithm(self, ctx):
        doc = {"action": "optimize", "optimizer_budget": 10}
        payload, _ = validate("equipped_sizing", doc, ctx)
        assert payload["algorithm"] == "bo"

    def test_equipped_sizing_requires_budget(self, ctx):
        with pytest.raises(SchemaViolation, match="optimizer_budget"):
            validate("equipped_sizing", {"action": "optimize"}, ctx)

    def test_equipped_sizing_propose_requires_parameters(self, ctx):
        with pytest.raises(SchemaViolation, match="parameters"):
            validate("equipped_sizing", {"action": "propose"}, ctx)


class TestEnforceSchema:
    def test_valid_document_passes_on_first_attempt(self, ctx):
        raw = 'Answer: {"explanation": "two-stage amplifier"}'
        out = enforce_schema(raw, "explanation", ctx)
        assert isinstance(out, EnforcedOutput)
        assert out.payload["explanation"] == "two-stage amplifier"
        assert out.attempts_used == 1
        assert out.failed_attempts == ()

    def test_retry_prompt_names_missing_field_then_succeeds(self, ctx):
        violations = []

        def reprompt(violation):
            violations.append(violation)
            return '{"parameters": {"W1": 2e-5, "W2": 3e-5, "L1": 5e-7}, "rationale": "fixed"}'

        raw = '{"parameters": {"W1": 2e-5, "W2": 3e-5}, "rationale": "oops"}'
        out = enforce_schema(raw, "sizing_proposal", ctx, reprompt=reprompt)
        assert out.attempts_used == 2
        assert len(out.failed_attempts) == 1
        assert "L1" in violations[0]

    def test_three_invalid_attempts_raise_with_all_attempts(self, ctx):
        def reprompt(violation):
            return "still not json"

        with pytest.raises(SchemaFailure) as exc_info:
            enforce_schema("nope", "sizing_proposal", ctx, reprompt=reprompt, max_retries=3)
        failure = exc_info.value
        assert failure.schema_id == "sizing_proposal"
        assert len(failure.attempts) == 3
        assert all(a.violation for a in failure.attempts)

    def test_no_reprompt_hook_fails_after_one_attempt(self, ctx):
        with pytest.raises(SchemaFailure) as exc_info:
            enforce_schema("nope", "explanation", ctx)
        assert len(exc_info.value.attempts) == 1

    def test_clamp_is_not_a_retry(self, ctx):
        raw = '{"parameters": {"W1": 5.0, "W2": 3e-5, "L1": 5e-7}}'
        out = enforce_schema(raw, "sizing_proposal", ctx)
        assert out.attempts_used == 1
        assert any("clamped" in n for n in out.notes)
