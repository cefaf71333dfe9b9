"""Tests for the environment-drift stream."""

import numpy as np
import pytest

from repro.data.drift import DriftStream, growing_phases
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset


@pytest.fixture
def dataset():
    return SyntheticImageDataset(SyntheticConfig("drift", num_classes=8, image_size=8))


@pytest.fixture
def rng():
    return np.random.default_rng(19)


class TestGrowingPhases:
    def test_cumulative_unlock(self):
        phases = growing_phases(8, 4)
        assert phases == [[0, 1], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5], list(range(8))]

    def test_single_phase_all_classes(self):
        assert growing_phases(5, 1) == [list(range(5))]

    def test_validation(self):
        with pytest.raises(ValueError):
            growing_phases(3, 0)
        with pytest.raises(ValueError):
            growing_phases(2, 5)


class TestDriftStream:
    def test_validation(self, dataset, rng):
        with pytest.raises(ValueError):
            DriftStream(dataset, 0, rng, [[0]], 10)
        with pytest.raises(ValueError):
            DriftStream(dataset, 2, rng, [], 10)
        with pytest.raises(ValueError):
            DriftStream(dataset, 2, rng, [[]], 10)
        with pytest.raises(ValueError):
            DriftStream(dataset, 2, rng, [[99]], 10)
        with pytest.raises(ValueError):
            DriftStream(dataset, 2, rng, [[0]], 0)

    def test_phase_respected(self, dataset, rng):
        stream = DriftStream(
            dataset, stc=3, rng=rng, phases=[[0, 1], [2, 3]], phase_length=30
        )
        first = stream.next_labels(30)
        second = stream.next_labels(30)
        assert set(first.tolist()) <= {0, 1}
        assert set(second.tolist()) <= {2, 3}

    def test_last_phase_persists(self, dataset, rng):
        stream = DriftStream(
            dataset, stc=2, rng=rng, phases=[[0], [1]], phase_length=10
        )
        stream.next_labels(50)
        tail = stream.next_labels(20)
        assert set(tail.tolist()) == {1}

    def test_runs_within_phase(self, dataset, rng):
        stream = DriftStream(
            dataset, stc=5, rng=rng, phases=[list(range(8))], phase_length=10_000
        )
        labels = stream.next_labels(200)
        change_points = np.flatnonzero(labels[1:] != labels[:-1]) + 1
        runs = np.diff(np.concatenate([[0], change_points, [200]]))
        assert (runs[:-1] == 5).all()

    def test_run_truncated_at_phase_boundary(self, dataset, rng):
        """A run cannot leak a class into a phase that excludes it."""
        stream = DriftStream(
            dataset, stc=100, rng=rng, phases=[[0], [1]], phase_length=10
        )
        labels = stream.next_labels(20)
        assert (labels[:10] == 0).all()
        assert (labels[10:] == 1).all()

    def test_phase_index_and_active_classes(self, dataset, rng):
        stream = DriftStream(
            dataset, stc=2, rng=rng, phases=[[0, 1], [2]], phase_length=16
        )
        assert stream.phase_index(0) == 0
        assert stream.phase_index(16) == 1
        assert stream.phase_index(1000) == 1
        assert stream.active_classes(0) == [0, 1]
        assert stream.active_classes(20) == [2]

    def test_segments_protocol(self, dataset, rng):
        stream = DriftStream(
            dataset, stc=2, rng=rng, phases=[[0, 1]], phase_length=100
        )
        segments = list(stream.segments(8, 20))
        assert [len(s) for s in segments] == [8, 8, 4]
        assert stream.position == 20
        assert segments[0].images.shape == (8, 3, 8, 8)

    def test_reproducible(self, dataset):
        def labels(seed):
            stream = DriftStream(
                dataset,
                stc=3,
                rng=np.random.default_rng(seed),
                phases=growing_phases(8, 2),
                phase_length=40,
            )
            return stream.next_labels(80)

        np.testing.assert_array_equal(labels(5), labels(5))

    def test_single_class_phase_no_repeat_constraint(self, dataset, rng):
        stream = DriftStream(dataset, stc=2, rng=rng, phases=[[3]], phase_length=50)
        labels = stream.next_labels(10)
        assert (labels == 3).all()

    def test_works_with_framework(self, dataset, rng):
        """DriftStream satisfies the same protocol TemporalStream does."""
        from repro.core import ContrastScorer, ContrastScoringPolicy
        from repro.core.framework import OnDeviceContrastiveLearner
        from repro.nn.projection import ProjectionHead
        from repro.nn.resnet import resnet_micro

        encoder = resnet_micro(rng=np.random.default_rng(1))
        projector = ProjectionHead(encoder.feature_dim, out_dim=8, rng=rng)
        policy = ContrastScoringPolicy(ContrastScorer(encoder, projector), 4)
        learner = OnDeviceContrastiveLearner(
            encoder, projector, policy, 4, rng, lr=1e-3
        )
        stream = DriftStream(
            dataset, stc=4, rng=rng, phases=growing_phases(8, 2), phase_length=16
        )
        stats = [learner.process_segment(s) for s in stream.segments(4, 32)]
        assert len(stats) == 8
