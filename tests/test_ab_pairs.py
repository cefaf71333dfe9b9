"""The verdict rules of ``tools/ab_pairs.py`` on synthetic A/B rows."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"

END_TO_END = [
    {"name": "op_cpu_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "items_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "accuracy", "unit": "fraction", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_rows(parent, change, items=None, accuracy=None, failed=(0, 0)):
    """One row per run; ``parent[i]`` and ``change[i]`` form pair ``i``."""
    items = items or ([100.0] * len(parent), [100.0] * len(change))
    accuracy = accuracy or ([1.0] * len(parent), [1.0] * len(change))
    rows = []
    for side, ms, its, acc, bad in zip(("parent", "change"), (parent, change), items, accuracy, failed):
        for pair, (m, i, a) in enumerate(zip(ms, its, acc)):
            metrics = {
                "op_cpu_ms.p50": {"value": m, "unit": "ms"},
                "items_per_cpu_s": {"value": i, "unit": "1/s"},
                "accuracy": {"value": a, "unit": "fraction"},
            }
            result = {"correct": bad == 0, "attempted": 10, "failed": bad, "metrics": metrics}
            rows.append({"side": side, "pair": pair, "seed": 101, "result": result})
    return rows


def test_claim_met_needs_nine_tenths_and_the_iqr(ab):
    parent = [60.0, 61.0, 59.0, 60.5, 59.5, 60.0, 61.0, 59.0, 60.5, 59.5]
    change = [50.0, 51.0, 49.0, 50.5, 49.5, 50.0, 51.0, 49.0, 50.5, 62.0]
    claim = ab.summarize(make_rows(parent, change), END_TO_END, "op_cpu_ms.p50")
    entry = claim["metrics"]["op_cpu_ms.p50"]
    assert entry["parent"]["median"] == 60.0
    assert entry["verdict"] == "ok"  # the bound rule applies to it too
    entry = entry["claim"]
    assert (entry["wins"], entry["losses"], entry["ties"]) == (9, 1, 0)
    assert entry["verdict"] == "claim met"

    # Two losses of ten: 8/10 < 9/10.
    change[0] = 70.0
    entry = ab.summarize(make_rows(parent, change), END_TO_END, "op_cpu_ms.p50")[
        "metrics"
    ]["op_cpu_ms.p50"]["claim"]
    assert entry["wins"] == 8 and entry["verdict"] == "claim not met"


def test_ties_count_for_neither(ab):
    parent = [60.0] * 10
    change = [59.0] * 9 + [60.0]
    entry = ab.summarize(make_rows(parent, change), END_TO_END, "op_cpu_ms.p50")[
        "metrics"
    ]["op_cpu_ms.p50"]["claim"]
    assert (entry["wins"], entry["losses"], entry["ties"]) == (9, 0, 1)
    # 9 of 10 pairs run, and a 1.0 ms margin over a zero IQR.
    assert entry["verdict"] == "claim met"


def test_claim_within_the_parent_iqr_is_not_met(ab):
    parent = [50.0, 70.0] * 5  # IQR 20
    change = [49.0, 69.0] * 5  # every pair won by 1 ms
    entry = ab.summarize(make_rows(parent, change), END_TO_END, "op_cpu_ms.p50")[
        "metrics"
    ]["op_cpu_ms.p50"]["claim"]
    assert entry["wins"] == 10
    assert entry["margin"] == pytest.approx(1.0)
    assert entry["verdict"] == "claim not met"


def test_bound_and_spread_rules(ab):
    ms = [60.0] * 4
    # items: change median 70 vs parent 100 is 30% worse > the 0.25 bound.
    rows = make_rows(ms, ms, items=([100.0] * 4, [70.0] * 4))
    assert ab.summarize(rows, END_TO_END, "op_cpu_ms.p50")["metrics"]["items_per_cpu_s"][
        "verdict"
    ] == "worse beyond bound"
    # 20% worse is inside the bound: ok.
    rows = make_rows(ms, ms, items=([100.0] * 4, [80.0] * 4))
    assert ab.summarize(rows, END_TO_END, "op_cpu_ms.p50")["metrics"]["items_per_cpu_s"][
        "verdict"
    ] == "ok"
    # Parent IQR/median 0.5 > bound: unresolved, even at an equal median ...
    wide = [50.0, 50.0, 150.0, 150.0]
    rows = make_rows(ms, ms, items=(wide, [50.0, 150.0, 50.0, 150.0]))
    assert ab.summarize(rows, END_TO_END, "op_cpu_ms.p50")["metrics"]["items_per_cpu_s"][
        "verdict"
    ] == "unresolved"
    # ... unless every change run beats every parent run.
    rows = make_rows(ms, ms, items=(wide, [151.0, 160.0, 170.0, 180.0]))
    assert ab.summarize(rows, END_TO_END, "op_cpu_ms.p50")["metrics"]["items_per_cpu_s"][
        "verdict"
    ] == "ok"


def test_failed_share_and_incorrect_runs(ab):
    report = ab.summarize(make_rows([60.0] * 2, [50.0] * 2, failed=(0, 1)), END_TO_END, "op_cpu_ms.p50")
    assert report["failed_share"] == {"parent": 0.0, "change": 0.1}
    assert report["incorrect_runs"] == 2
    assert report["metrics"]["accuracy"]["verdict"] == "ok"


def test_zero_parent_median_uses_the_direction(ab):
    ms = [60.0] * 4
    # Higher is better: rising from 0 is not a worsening.
    rows = make_rows(ms, ms, accuracy=([0.0] * 4, [0.5] * 4))
    entry = ab.summarize(rows, END_TO_END, "op_cpu_ms.p50")["metrics"]["accuracy"]
    assert entry["relative_worsening"] == 0.0 and entry["verdict"] == "ok"
    # Lower is better: rising from 0 is worse beyond any bound.
    rows = make_rows([0.0] * 4, [1.0] * 4)
    entry = ab.summarize(rows, END_TO_END, "op_cpu_ms.p50")["metrics"]["op_cpu_ms.p50"]
    assert entry["verdict"] == "worse beyond bound"


@pytest.mark.parametrize("seeds", [[101], [101, 2027], [1, 2, 3]])
def test_each_seed_alternates_which_side_runs_first(ab, seeds):
    plan = ab.schedule(10, seeds)
    assert [pair for pair, _, _ in plan] == list(range(10))
    assert [seed for _, seed, _ in plan] == [seeds[p % len(seeds)] for p in range(10)]
    for seed in seeds:
        orders = [order for _, s, order in plan if s == seed]
        assert set(orders) == {("parent", "change"), ("change", "parent")}
        assert all(a != b for a, b in zip(orders, orders[1:]))
