"""Unit tests for the pure-syntax composition layer
(:mod:`repro.data.composition`): parsing, canonical formatting, and the
syntax-error contract.  Registry semantics (is this name a wrapper, do
the options exist) live one layer up and are tested with the algebra."""

import pytest

from repro.data.composition import (
    CompositionSyntaxError,
    ScenarioExpr,
    format_scenario,
    parse_scenario,
)


class TestParse:
    def test_plain_name(self):
        expr = parse_scenario("temporal")
        assert expr == ScenarioExpr("temporal")
        assert expr.child is None
        assert expr.options == ()
        assert expr.depth == 0

    def test_nested_with_options(self):
        expr = parse_scenario("corrupted(bursty(imbalanced(imbalance=0.3)),noise_std=0.1)")
        assert expr.name == "corrupted"
        assert expr.option_dict == {"noise_std": 0.1}
        assert expr.child.name == "bursty"
        assert expr.child.child.option_dict == {"imbalance": 0.3}
        assert expr.depth == 2
        assert [node.name for node in expr.walk()] == [
            "corrupted",
            "bursty",
            "imbalanced",
        ]

    def test_options_after_child_belong_to_the_enclosing_node(self):
        # kwargs following a child expr configure the *wrapper*, not the
        # child — per-node options go inside that node's own parentheses
        expr = parse_scenario("bursty(imbalanced,burst_prob=0.5)")
        assert expr.option_dict == {"burst_prob": 0.5}
        assert expr.child.options == ()

    def test_options_only_parens(self):
        expr = parse_scenario("imbalanced(imbalance=0.05)")
        assert expr.child is None
        assert expr.option_dict == {"imbalance": 0.05}

    def test_value_literals(self):
        expr = parse_scenario(
            "corrupted(temporal,blur=false,levels=3,noise_std=0.25,tag=none,flag=true,mode=fast)"
        )
        assert expr.option_dict == {
            "blur": False,
            "levels": 3,
            "noise_std": 0.25,
            "tag": None,
            "flag": True,
            "mode": "fast",
        }
        assert isinstance(expr.option_dict["levels"], int)

    def test_whitespace_tolerated(self):
        spaced = parse_scenario(" corrupted( bursty , noise_std = 0.1 ) ")
        assert spaced == parse_scenario("corrupted(bursty,noise_std=0.1)")

    def test_kebab_names(self):
        expr = parse_scenario("label-shift(cyclic-drift)")
        assert expr.name == "label-shift"
        assert expr.child.name == "cyclic-drift"


class TestFormat:
    @pytest.mark.parametrize(
        "text",
        [
            "temporal",
            "corrupted(bursty(imbalanced))",
            "label-shift(adversarial(cyclic-drift,lookahead=2),shift=1.0)",
            "corrupted(temporal,noise_std=0.1,blur=false)",
        ],
    )
    def test_round_trip_fixed_point(self, text):
        assert format_scenario(parse_scenario(text)) == text
        # formatting is a fixed point: parse(format(e)) == e
        expr = parse_scenario(text)
        assert parse_scenario(format_scenario(expr)) == expr

    def test_canonical_spacing_and_literals(self):
        expr = parse_scenario(" corrupted( temporal , blur = false , noise_std = 0.50 ) ")
        assert format_scenario(expr) == "corrupted(temporal,blur=false,noise_std=0.5)"

    def test_str_is_format(self):
        expr = parse_scenario("bursty(drift,burst_prob=0.25)")
        assert str(expr) == format_scenario(expr)


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "non-empty string"),
            ("corrupted(bursty(", "expected a scenario name"),
            ("corrupted(bursty))", "unexpected trailing input"),
            ("corrupted()", "empty parentheses"),
            ("corrupted(temporal,noise_std=0.1,noise_std=0.2)", "duplicate option"),
            ("Corrupted(temporal)", "expected a scenario name"),
            ("corrupted(temporal,=3)", "expected"),
            ("corrupted(temporal,noise_std=)", "expected a value"),
        ],
    )
    def test_malformed_rejected(self, text, fragment):
        with pytest.raises(CompositionSyntaxError, match=fragment):
            parse_scenario(text)

    def test_error_is_value_error_with_position(self):
        with pytest.raises(ValueError) as excinfo:
            parse_scenario("corrupted(bursty(")
        message = str(excinfo.value)
        assert "invalid scenario composition 'corrupted(bursty('" in message
        assert "at position 17" in message
