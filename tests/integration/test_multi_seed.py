"""Tests for multi-seed aggregation."""

import numpy as np
import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.experiments.multi_seed import (
    MultiSeedResult,
    SeedAggregate,
    format_multi_seed,
    run_multi_seed,
)


@pytest.fixture
def tiny_config():
    return StreamExperimentConfig(
        dataset="cifar10",
        image_size=8,
        stc=8,
        total_samples=96,
        buffer_size=8,
        encoder_widths=(8, 16),
        projection_dim=8,
        probe_train_per_class=3,
        probe_test_per_class=2,
        probe_epochs=3,
        seed=0,
    )


class TestSeedAggregate:
    def test_statistics(self):
        agg = SeedAggregate("p", [0.5, 0.7])
        assert agg.mean == pytest.approx(0.6)
        assert agg.std == pytest.approx(0.1)
        assert agg.count == 2


class TestRunMultiSeed:
    def test_structure(self, tiny_config):
        result = run_multi_seed(
            tiny_config, policies=("fifo", "random-replace"), seeds=(0, 1)
        )
        assert set(result.aggregates) == {"fifo", "random-replace"}
        assert result.aggregates["fifo"].count == 2
        assert len(result.runs["fifo"]) == 2

    def test_seeds_produce_different_runs(self, tiny_config):
        result = run_multi_seed(tiny_config, policies=("fifo",), seeds=(0, 1))
        losses = [run.final_loss for run in result.runs["fifo"]]
        assert losses[0] != losses[1]

    def test_same_seed_reproducible(self, tiny_config):
        a = run_multi_seed(tiny_config, policies=("fifo",), seeds=(0,))
        b = run_multi_seed(tiny_config, policies=("fifo",), seeds=(0,))
        assert a.aggregates["fifo"].accuracies == b.aggregates["fifo"].accuracies

    def test_win_rate(self, tiny_config):
        result = run_multi_seed(
            tiny_config, policies=("fifo", "random-replace"), seeds=(0, 1)
        )
        rate = result.win_rate("fifo", "random-replace")
        assert 0.0 <= rate <= 1.0

    def test_empty_seeds_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            run_multi_seed(tiny_config, seeds=())

    def test_format(self, tiny_config):
        result = run_multi_seed(tiny_config, policies=("fifo",), seeds=(0,))
        text = format_multi_seed(result)
        assert "mean ± std" in text
        assert "fifo" in text

    @pytest.mark.parametrize("workers, footers", [(1, 0), (2, 1)])
    def test_timings_footer_only_when_parallel(self, tiny_config, workers, footers):
        result = run_multi_seed(
            tiny_config, policies=("fifo",), seeds=(0, 1), workers=workers
        )
        lines = format_multi_seed(result).splitlines()
        assert sum(line.startswith("timings:") for line in lines) == footers


class TestWinRateEdgeCases:
    def test_no_pairs_raises(self):
        result = MultiSeedResult(config=None, seeds=())
        result.aggregates["a"] = SeedAggregate("a", [])
        result.aggregates["b"] = SeedAggregate("b", [])
        with pytest.raises(ValueError):
            result.win_rate("a", "b")
