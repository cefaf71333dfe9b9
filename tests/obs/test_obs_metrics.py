"""MetricsRegistry: instrument semantics, label sets, merge, gating."""

import json
import os

import pytest

from repro.obs import (
    METRIC_INVENTORY,
    METRICS_ENV,
    MetricsRegistry,
    metric_inventory,
    metrics,
    metrics_enabled,
    reset_metrics,
    set_metrics_enabled,
    use_metrics,
)
from repro.obs.metrics import bucket_bounds, bucket_index


@pytest.fixture(autouse=True)
def _clean_process_state(monkeypatch):
    monkeypatch.delenv(METRICS_ENV, raising=False)
    reset_metrics()
    previous = metrics_enabled()
    yield
    set_metrics_enabled(previous)
    reset_metrics()


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(2.5)
        assert registry.value("requests") == 3.5

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("requests")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_same_handle_for_same_labels(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a=1, b="x") is registry.counter(
            "c", b="x", a=1
        )


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 12.0


class TestHistogram:
    def test_summary_statistics(self):
        hist = MetricsRegistry().histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 10.0
        assert hist.min == 1.0
        assert hist.max == 4.0
        assert hist.mean == 2.5

    def test_percentiles_bracket_the_data(self):
        hist = MetricsRegistry().histogram("latency")
        for i in range(1, 101):
            hist.observe(float(i))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        # Exponential buckets are good to a factor of 2.
        assert 25.0 <= hist.percentile(50) <= 100.0

    def test_percentile_validates_q(self):
        hist = MetricsRegistry().histogram("latency")
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            hist.percentile(101)

    def test_empty_histogram_is_all_zero(self):
        hist = MetricsRegistry().histogram("latency")
        assert hist.count == 0
        assert hist.percentile(99) == 0.0
        assert hist.min == 0.0 and hist.max == 0.0

    def test_bucket_grid_is_monotone(self):
        values = (1e-9, 1e-6, 3e-4, 0.1, 1.0, 7.0, 1e6)
        indices = [bucket_index(v) for v in values]
        assert indices == sorted(indices)
        # In-range values land inside their bucket's (low, high] bounds.
        for value in (3e-4, 0.1, 1.0, 7.0):
            low, high = bucket_bounds(bucket_index(value))
            assert low < value <= high


class TestLabelSets:
    def test_labels_partition_series(self):
        registry = MetricsRegistry()
        registry.counter("jobs", worker=0).inc()
        registry.counter("jobs", worker=1).inc(5)
        assert registry.value("jobs", worker=0) == 1.0
        assert registry.value("jobs", worker=1) == 5.0
        assert registry.value("jobs") is None

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="is a counter, not a histogram"):
            registry.histogram("thing")

    def test_series_is_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.gauge("b").set(1)
        registry.counter("a", z="2").inc()
        registry.counter("a", z="1").inc()
        listed = [
            (kind, name, labels) for kind, name, labels, _ in registry.series()
        ]
        assert listed == [
            ("counter", "a", {"z": "1"}),
            ("counter", "a", {"z": "2"}),
            ("gauge", "b", {}),
        ]


class TestSnapshotMerge:
    def test_snapshot_is_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(2)
        registry.histogram("h").observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        other = MetricsRegistry()
        other.merge(snapshot)
        assert other.value("c", k="v") == 2.0
        assert other.histogram("h").count == 1

    def test_merge_by_label_set(self):
        parent = MetricsRegistry()
        parent.counter("jobs", worker=0).inc(2)
        parent.gauge("depth").set(1)
        worker_a = MetricsRegistry()
        worker_a.counter("jobs", worker=0).inc(3)
        worker_a.counter("jobs", worker=1).inc(1)
        worker_a.gauge("depth").set(7)
        parent.merge(worker_a.snapshot())
        assert parent.value("jobs", worker=0) == 5.0  # counters add
        assert parent.value("jobs", worker=1) == 1.0  # new series appears
        assert parent.value("depth") == 7.0  # gauges last-write-win

    def test_histogram_merge_is_exact(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.001, 0.5, 3.0):
            a.histogram("h").observe(v)
        for v in (0.25, 40.0):
            b.histogram("h").observe(v)
        a.merge(b.snapshot())
        merged = a.histogram("h")
        assert merged.count == 5
        assert merged.sum == pytest.approx(43.751)
        assert merged.min == 0.001
        assert merged.max == 40.0

    def test_kind_conflict_on_merge_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1)
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            a.merge(b.snapshot())

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert list(registry.series()) == []
        assert registry.value("c") is None


class TestProcessGateAndInventory:
    def test_env_sets_the_import_default(self):
        # The gate is read from REPRO_METRICS once at import — that is
        # how pool workers inherit the parent's choice — so probe fresh
        # interpreters rather than mutating this one's import state.
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        code = "import repro.obs as obs; print(obs.metrics_enabled())"
        for value, expect in (("1", "True"), ("true", "True"), ("0", "False")):
            env = dict(os.environ, PYTHONPATH=src, **{METRICS_ENV: value})
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            assert out.stdout.strip() == expect, value

    def test_set_overrides(self):
        set_metrics_enabled(False)
        assert not metrics_enabled()
        set_metrics_enabled(True)
        assert metrics_enabled()

    def test_use_metrics_restores(self):
        set_metrics_enabled(False)
        with use_metrics(True):
            assert metrics_enabled()
            with use_metrics(False):
                assert not metrics_enabled()
            assert metrics_enabled()
        assert not metrics_enabled()

    def test_use_metrics_none_defers(self):
        set_metrics_enabled(True)
        with use_metrics(None):
            assert metrics_enabled()

    def test_process_registry_is_a_singleton(self):
        metrics().counter("alive").inc()
        assert metrics().value("alive") == 1.0
        reset_metrics()
        assert metrics().value("alive") is None

    def test_inventory_names_are_dotted_and_described(self):
        assert METRIC_INVENTORY  # non-empty
        for name, description in METRIC_INVENTORY.items():
            assert "." in name and name == name.lower()
            assert description
        copy = metric_inventory()
        copy.clear()
        assert METRIC_INVENTORY  # accessor returns a copy


class TestJobCounters:
    """Every fan-out mirrors its JobTimings into ``jobs.*`` exactly once,
    labelled by engine, whether or not metrics are enabled and whatever
    path it took (serial or pool)."""

    @staticmethod
    def tiny_config():
        from repro.experiments.config import StreamExperimentConfig

        return StreamExperimentConfig(
            dataset="cifar10",
            image_size=8,
            stc=8,
            total_samples=48,
            buffer_size=8,
            encoder_widths=(8, 16),
            projection_dim=8,
            probe_train_per_class=2,
            probe_test_per_class=2,
            probe_epochs=2,
            seed=0,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_records_with_metrics_off(self, workers):
        from repro.experiments.parallel import SweepSpec, run_sweep

        set_metrics_enabled(False)
        specs = [
            SweepSpec(config=self.tiny_config().with_(seed=seed), policy="fifo")
            for seed in (0, 1)
        ]
        run_sweep(specs, workers=workers)
        assert metrics().value("jobs.wall_seconds", engine="sweep") > 0.0
        assert metrics().value("jobs.wall_seconds", engine="fleet") is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fleet_records_with_metrics_off(self, workers):
        from repro.fleet import FleetCoordinator

        set_metrics_enabled(False)
        FleetCoordinator.build(
            self.tiny_config(), devices=2, rounds=1, workers=workers
        ).run()
        assert metrics().value("jobs.wall_seconds", engine="fleet") > 0.0
        assert metrics().value("jobs.wall_seconds", engine="sweep") is None
