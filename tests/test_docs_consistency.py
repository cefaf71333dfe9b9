"""Tier-1 guard for the docs-consistency contract.

CI runs ``tools/check_docs.py`` as a separate step; these tests keep
the same check (and the checker's own failure modes) in the tier-1
suite so a registry/docs mismatch fails fast locally too.
"""

import importlib.util
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_docs", TOOLS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_registries_and_docs_agree(checker):
    assert checker.check() == []


def test_checker_detects_missing_name(checker, monkeypatch):
    """The checker must actually bite: an undocumented registration
    (and an unregistered documented name) both surface as problems."""
    from repro.registry import register_scenario, SCENARIOS
    from repro.data.stream import TemporalStream

    @register_scenario("undocumented-test")
    def undocumented(dataset, stc, rng):
        return TemporalStream(dataset, stc, rng)

    try:
        problems = checker.check()
    finally:
        SCENARIOS.unregister("undocumented-test")
    assert any("undocumented-test" in p for p in problems)
    # both directions: the API.md inventory and the SCENARIOS.md section
    assert any("inventory" in p for p in problems)
    assert any("SCENARIOS.md" in p for p in problems)


def test_checker_detects_missing_wrapper(checker):
    """A registered wrapper must appear in BOTH the scenarios and the
    scenario-wrappers inventories (and get a SCENARIOS.md section)."""
    from repro.registry import register_scenario, SCENARIOS
    from repro.data.stream import TemporalStream

    @register_scenario("undocumented-wrapper-test", kind="wrapper")
    def undocumented(dataset, stc, rng, base_source=None, wrapper_layer=0):
        return base_source or TemporalStream(dataset, stc, rng)

    try:
        problems = checker.check()
    finally:
        SCENARIOS.unregister("undocumented-wrapper-test")
    assert any(
        p.startswith("scenarios:") and "undocumented-wrapper-test" in p
        for p in problems
    )
    assert any(
        p.startswith("scenario-wrappers:") and "undocumented-wrapper-test" in p
        for p in problems
    )


def test_checker_detects_missing_aggregator(checker):
    """Both directions for the AGGREGATORS registry too: an
    undocumented aggregator surfaces in the docs/API.md inventory and
    as a missing docs/FLEET.md section."""
    from repro.registry import register_aggregator, AGGREGATORS
    from repro.fleet.aggregators import Aggregator

    @register_aggregator("undocumented-agg-test")
    class Undocumented(Aggregator):
        def aggregate(self, global_state, reports):
            return None

    try:
        problems = checker.check()
    finally:
        AGGREGATORS.unregister("undocumented-agg-test")
    assert any("undocumented-agg-test" in p for p in problems)
    assert any("inventory" in p and "undocumented-agg-test" in p for p in problems)
    assert any("FLEET.md" in p and "undocumented-agg-test" in p for p in problems)


def test_checker_detects_stale_cli_listing(checker, monkeypatch, tmp_path):
    """README.md's --list block must be the command's exact output."""
    readme = tmp_path / "README.md"
    text = checker.README_MD.read_text()
    assert "  fedavg-async " in text
    readme.write_text(text.replace("  fedavg-async ", "  fedavg-momentum ", 1))
    monkeypatch.setattr(checker, "README_MD", readme)
    problems = checker.check()
    assert any("README.md --list block differs" in p for p in problems)


def test_inventory_parser_reads_backticked_names(checker):
    inventories = checker.parse_inventories(
        "x <!-- inventory:backends -->`numpy` and `fused`<!-- /inventory --> y"
    )
    assert inventories == {"backends": {"numpy", "fused"}}
