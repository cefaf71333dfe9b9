"""Integration tests for the ablation harnesses at tiny scale."""

import numpy as np
import pytest

from repro.experiments import (
    format_gradient_ablation,
    format_momentum_ablation,
    format_scoring_view_ablation,
    format_stc_sweep,
    run_gradient_ablation,
    run_momentum_ablation,
    run_scoring_view_ablation,
    run_stc_sweep,
)
from repro.data.augment import SimCLRAugment
from repro.data.stream import TemporalStream
from repro.experiments.config import StreamExperimentConfig
from repro.experiments.drift import run_drift_experiment
from repro.registry import AUGMENTS, SCENARIOS, register_augment, register_scenario


@pytest.fixture
def tiny_config():
    return StreamExperimentConfig(
        dataset="cifar10",
        image_size=8,
        stc=8,
        total_samples=128,
        buffer_size=8,
        encoder_widths=(8, 16),
        encoder_blocks=1,
        projection_dim=8,
        probe_train_per_class=4,
        probe_test_per_class=2,
        probe_epochs=5,
        seed=0,
    )


@pytest.fixture
def counting_augment():
    """A plugin augment, registered as ``counting-test``, that records
    the batch size of every training step it serves."""
    calls = []

    class CountingAugment(SimCLRAugment):
        def __call__(self, images, rng):
            calls.append(images.shape[0])
            return super().__call__(images, rng)

    register_augment("counting-test")(CountingAugment)
    try:
        yield calls
    finally:
        AUGMENTS.unregister("counting-test")


@pytest.fixture
def counting_scenario():
    """A plugin scenario, registered as ``counting-test``: the temporal
    stream, recording the size of every segment it serves."""
    served = []

    class CountingStream(TemporalStream):
        def next_segment(self, segment_size):
            segment = super().next_segment(segment_size)
            served.append(len(segment))
            return segment

    @register_scenario("counting-test")
    def counting(dataset, stc, rng):
        return CountingStream(dataset, stc, rng)

    try:
        yield served
    finally:
        SCENARIOS.unregister("counting-test")


class TestAblationsFollowTheConfig:
    """The drift and gradient ablations run through Session, so
    ``config.augment`` picks the augment their training steps use."""

    @pytest.mark.parametrize("ablation", ["drift", "gradient"])
    def test_training_uses_the_config_augment(self, tiny_config, counting_augment, ablation):
        config = tiny_config.with_(augment="counting-test")
        if ablation == "drift":
            run_drift_experiment(config, policies=("fifo",), num_phases=2)
        else:
            run_gradient_ablation(config, probes=2, batch=16)
        assert counting_augment == [config.buffer_size] * config.iterations

    def test_gradient_ablation_streams_the_config_scenario(self, tiny_config, counting_scenario):
        config = tiny_config.with_(scenario="counting-test")
        result = run_gradient_ablation(config, probes=2, batch=16)
        steps = result.checkpoints[-1]
        assert counting_scenario == [config.buffer_size] * steps


class TestGradientAblation:
    def test_structure(self, tiny_config):
        result = run_gradient_ablation(tiny_config, probes=2, batch=16)
        # probes + the pre-training measurement
        assert len(result.checkpoints) == 3
        assert len(result.correlations) == 3
        assert all(np.isfinite(c) for c in result.correlations)

    def test_high_score_quartile_dominates(self, tiny_config):
        result = run_gradient_ablation(tiny_config, probes=2, batch=16)
        for low, high in zip(result.low_score_grad, result.high_score_grad):
            assert high >= low * 0.5  # loose at tiny scale; shape holds

    def test_format(self, tiny_config):
        result = run_gradient_ablation(tiny_config, probes=1, batch=16)
        text = format_gradient_ablation(result)
        assert "spearman" in text


class TestScoringViewAblation:
    def test_deterministic_has_zero_std(self, tiny_config):
        result = run_scoring_view_ablation(tiny_config, repeats=3)
        assert result.deterministic_score_std == 0.0
        assert result.randomized_score_std > 0.0

    def test_format(self, tiny_config):
        result = run_scoring_view_ablation(tiny_config, repeats=2)
        text = format_scoring_view_ablation(result)
        assert "deterministic flip" in text


class TestStcSweep:
    def test_structure(self, tiny_config):
        result = run_stc_sweep(tiny_config, stc_values=(1, 16))
        assert result.stc_values == (1, 16)
        for stc in (1, 16):
            assert set(result.accuracy[stc]) == {
                "contrast-scoring",
                "random-replace",
            }
        assert np.isfinite(result.margin(16))

    def test_format(self, tiny_config):
        result = run_stc_sweep(tiny_config, stc_values=(1,))
        assert "STC" in format_stc_sweep(result)


class TestMomentumAblation:
    def test_structure(self, tiny_config):
        result = run_momentum_ablation(
            tiny_config, momenta=(0.0, 0.9), lazy_interval=4
        )
        assert len(result.settings) == 3
        assert result.settings[0] == "eager (paper)"
        assert "lazy" in result.settings[-1]
        assert result.rescoring[0] == 1.0
        assert result.rescoring[-1] < 1.0

    def test_format(self, tiny_config):
        result = run_momentum_ablation(tiny_config, momenta=(0.0,), lazy_interval=4)
        text = format_momentum_ablation(result)
        assert "score update rule" in text
