"""Hostile composition strings: ``create_scenario`` builds a stream or
raises a named error, never anything else.

A composition arrives from outside the program (the CLI's
``--scenario``, a checkpoint's config), so a malformed one must raise
``ValueError`` (``CompositionSyntaxError`` and ``UnknownComponentError``
are ValueErrors too) or the documented ``TypeError`` for an option a
factory does not accept.  Random strings exercise the parser; mutated
valid compositions hand every factory option values of every kind.
Falsified strings join ``composition_corpus.json``, which is replayed
case by case.
"""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.scenarios import create_scenario
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.registry import SCENARIOS

CORPUS = json.loads(
    (Path(__file__).parent / "composition_corpus.json").read_text(encoding="utf-8")
)["cases"]
DATASET = SyntheticImageDataset(SyntheticConfig("composition-errors", num_classes=8, image_size=8))
SETTINGS = dict(max_examples=150, deadline=None)

#: What ``create_scenario`` offers every factory; the rest of a
#: factory's parameters are the options a composition may set.  Option
#: keys are drawn from both: an offered keyword written as an option is
#: a named error too.
OFFERED = {"dataset", "stc", "rng", "total_samples", "base_source", "wrapper_layer"}
NAMES = sorted(SCENARIOS.names())
OPTIONS = sorted(
    {
        parameter
        for name in NAMES
        for parameter in inspect.signature(SCENARIOS.get(name).factory).parameters
    }
    | OFFERED
)
#: Bare values of every kind the grammar parses: strings, none, flags,
#: integers, reals, and reals that overflow to infinity.
VALUES = ("abc", "nan", "none", "true", "false", "0", "1", "-1", "2.5", "1e400", "-1e400")


def build_or_named_error(scenario: str) -> None:
    """Build ``scenario``; let any error but a named one propagate."""
    try:
        create_scenario(
            scenario,
            dataset=DATASET,
            stc=4,
            rng=np.random.default_rng(0),
            total_samples=64,
        )
    except ValueError:
        pass
    except TypeError as error:
        if "does not accept option(s)" not in str(error):
            raise


def _render(name, child, options) -> str:
    parts = ([child] if child else []) + [f"{key}={value}" for key, value in options]
    return f"{name}({','.join(parts)})" if parts else name


values = st.sampled_from(VALUES) | st.from_regex(
    r"-?\d{1,12}(\.\d{0,3})?(e-?\d{1,3})?", fullmatch=True
)
compositions = st.builds(
    _render,
    st.sampled_from(NAMES),
    st.none() | st.sampled_from(NAMES),
    st.lists(st.tuples(st.sampled_from(OPTIONS), values), max_size=3),
)
grammar_text = st.text(alphabet="abcdefgilmnoprstuy-_(),=.0123456789e ", max_size=40)


@settings(**SETTINGS)
@given(compositions)
def test_mutated_compositions_build_or_raise_named_errors(scenario):
    build_or_named_error(scenario)


@settings(**SETTINGS)
@given(grammar_text | st.text(max_size=40))
def test_random_strings_build_or_raise_named_errors(scenario):
    build_or_named_error(scenario)


@pytest.mark.parametrize("case", CORPUS, ids=[case["scenario"] for case in CORPUS])
def test_corpus_case(case):
    build_or_named_error(case["scenario"])
