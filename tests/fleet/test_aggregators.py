"""Aggregation rules: registry semantics, update-rule math, and
identity guarantees."""

import numpy as np
import pytest

from repro.fleet.aggregators import (
    Aggregator,
    DeviceRoundReport,
    create_aggregator,
    weighted_mean_state,
)
from repro.registry import AGGREGATORS, UnknownComponentError, register_aggregator


def report(name, arrays, weight=1.0, knn=0.5):
    return DeviceRoundReport(
        device=name, model_state=arrays, weight=weight, knn_accuracy=knn
    )


def toy(values, dtype=np.float32):
    return {"encoder/w": np.asarray(values, dtype=dtype)}


class TestRegistry:
    def test_builtins_registered(self):
        assert set(AGGREGATORS.names()) >= {
            "fedavg",
            "fedavg-async",
            "best-of",
            "local-only",
        }

    def test_aliases_resolve(self):
        assert AGGREGATORS.get("avg").name == "fedavg"
        assert AGGREGATORS.get("best").name == "best-of"
        assert AGGREGATORS.get("no-sync").name == "local-only"

    def test_did_you_mean(self):
        with pytest.raises(UnknownComponentError, match="did you mean 'fedavg'"):
            AGGREGATORS.get("fedavgg")

    def test_create_rejects_unknown_option(self):
        with pytest.raises(TypeError, match="does not accept"):
            create_aggregator("fedavg", beta=0.5)

    def test_create_accepts_factory_option(self):
        rule = create_aggregator("fedavg-async", alpha=0.25)
        assert rule.alpha == 0.25

    def test_create_type_checks(self):
        @register_aggregator("not-an-aggregator-test")
        def bad():
            return object()

        try:
            with pytest.raises(TypeError, match="expected"):
                create_aggregator("not-an-aggregator-test")
        finally:
            AGGREGATORS.unregister("not-an-aggregator-test")

    def test_plugin_rule_usable(self):
        @register_aggregator("plugin-mean-test")
        class PluginMean(Aggregator):
            def aggregate(self, global_state, reports):
                return weighted_mean_state(reports)

        try:
            rule = create_aggregator("plugin-mean-test")
            out = rule.aggregate(None, [report("d0", toy([2.0]))])
            assert out["encoder/w"] == np.float32(2.0)
        finally:
            AGGREGATORS.unregister("plugin-mean-test")


class TestWeightedMean:
    def test_weighted_average(self):
        out = weighted_mean_state(
            [
                report("d0", toy([0.0]), weight=1.0),
                report("d1", toy([3.0]), weight=3.0),
            ]
        )
        np.testing.assert_allclose(out["encoder/w"], [2.25])

    def test_single_report_is_bitwise_identity(self):
        values = np.array([0.1, -1.7, 3.3e-7], dtype=np.float32)
        out = weighted_mean_state([report("d0", {"encoder/w": values})])
        assert out["encoder/w"].dtype == np.float32
        assert np.array_equal(
            out["encoder/w"].view(np.uint32), values.view(np.uint32)
        )

    def test_zero_weights_fall_back_to_uniform(self):
        out = weighted_mean_state(
            [
                report("d0", toy([0.0]), weight=0.0),
                report("d1", toy([4.0]), weight=0.0),
            ]
        )
        np.testing.assert_allclose(out["encoder/w"], [2.0])

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError, match="share one"):
            weighted_mean_state(
                [
                    report("d0", {"encoder/w": np.zeros(1, np.float32)}),
                    report("d1", {"encoder/b": np.zeros(1, np.float32)}),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            weighted_mean_state([])

    def test_preserves_dtype(self):
        out = weighted_mean_state(
            [report("d0", toy([1.0], dtype=np.float64), weight=2.0)]
        )
        assert out["encoder/w"].dtype == np.float64


class TestBestOf:
    def test_picks_highest_accuracy(self):
        rule = create_aggregator("best-of")
        out = rule.aggregate(
            None,
            [
                report("d0", toy([1.0]), knn=0.2),
                report("d1", toy([2.0]), knn=0.9),
                report("d2", toy([3.0]), knn=0.5),
            ],
        )
        np.testing.assert_allclose(out["encoder/w"], [2.0])

    def test_tie_goes_to_lowest_index(self):
        rule = create_aggregator("best-of")
        out = rule.aggregate(
            None,
            [report("d0", toy([1.0]), knn=0.5), report("d1", toy([2.0]), knn=0.5)],
        )
        np.testing.assert_allclose(out["encoder/w"], [1.0])

    def test_returns_copies(self):
        rule = create_aggregator("best-of")
        source = toy([1.0])
        out = rule.aggregate(None, [report("d0", source)])
        out["encoder/w"][0] = 99.0
        assert source["encoder/w"][0] == 1.0


class TestLocalOnly:
    def test_never_synchronizes(self):
        rule = create_aggregator("local-only")
        assert rule.aggregate(None, [report("d0", toy([1.0]))]) is None


class TestFedAvgAsync:
    def test_all_fresh_degenerates_to_fedavg_bitwise(self):
        rule = create_aggregator("fedavg-async")
        reports = [
            report("d0", toy([1.0, 3.0]), weight=2.0),
            report("d1", toy([5.0, 7.0]), weight=1.0),
        ]
        previous = toy([100.0, 100.0])
        out = rule.aggregate(previous, reports)
        expected = create_aggregator("fedavg").aggregate(previous, reports)
        np.testing.assert_array_equal(out["encoder/w"], expected["encoder/w"])

    def test_single_fresh_report_is_bitwise_identity(self):
        rule = create_aggregator("fedavg-async")
        value = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        out = rule.aggregate(toy([9.0, 9.0, 9.0]), [report("d0", {"encoder/w": value})])
        np.testing.assert_array_equal(out["encoder/w"], value)
        assert out["encoder/w"].dtype == value.dtype

    def test_stale_report_is_downweighted_and_blended(self):
        # one stale report against a previous global: decay pulls the
        # average toward the old model by exactly (1 - mix)
        rule = create_aggregator("fedavg-async", alpha=1.0)
        stale = DeviceRoundReport(
            device="d0",
            model_state=toy([2.0]),
            weight=1.0,
            knn_accuracy=0.5,
            info={"staleness": 1.0},
        )
        out = rule.aggregate(toy([0.0]), [stale])
        # decay = (1 + 1)^-1 = 0.5 -> mix = 0.5 -> 0.5*0 + 0.5*2 = 1.0
        np.testing.assert_allclose(out["encoder/w"], [1.0])

    def test_mix_weights_fresh_over_stale(self):
        rule = create_aggregator("fedavg-async", alpha=1.0)
        fresh = report("d0", toy([0.0]), weight=1.0)
        stale = DeviceRoundReport(
            device="d1",
            model_state=toy([3.0]),
            weight=1.0,
            knn_accuracy=0.5,
            info={"staleness": 1.0},
        )
        out = rule.aggregate(toy([0.0]), [fresh, stale])
        # weights 1.0 and 0.5 -> avg = 1.0; mix = 1.5/2 = 0.75
        np.testing.assert_allclose(out["encoder/w"], [0.75])

    def test_first_aggregation_without_global_is_plain_average(self):
        rule = create_aggregator("fedavg-async", alpha=1.0)
        stale = DeviceRoundReport(
            device="d0",
            model_state=toy([4.0]),
            weight=1.0,
            knn_accuracy=0.5,
            info={"staleness": 3.0},
        )
        out = rule.aggregate(None, [stale])
        np.testing.assert_allclose(out["encoder/w"], [4.0])

    def test_rejects_bad_alpha_and_empty_reports(self):
        with pytest.raises(ValueError, match="alpha"):
            create_aggregator("fedavg-async", alpha=-0.1)
        with pytest.raises(ValueError, match="at least one"):
            create_aggregator("fedavg-async").aggregate(None, [])

    def test_registered_with_aliases(self):
        assert AGGREGATORS.get("async").name == "fedavg-async"
        assert AGGREGATORS.get("fedasync").name == "fedavg-async"
