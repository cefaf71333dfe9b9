"""Tests for the stage-1 on-device learning framework."""

import numpy as np
import pytest

from repro.core.framework import OnDeviceContrastiveLearner, StepStats
from repro.core.replacement import ContrastScoringPolicy
from repro.core.scoring import ContrastScorer
from repro.data.stream import StreamSegment, TemporalStream
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.nn.projection import ProjectionHead
from repro.nn.resnet import resnet_micro
from repro.registry import create_policy, policy_names
from repro.selection import FIFOPolicy, RandomReplacePolicy


@pytest.fixture
def dataset():
    return SyntheticImageDataset(SyntheticConfig("fw", num_classes=4, image_size=8))


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def make_learner(policy_kind, rng, buffer_size=4, dataset=None):
    model_rng = np.random.default_rng(1)
    encoder = resnet_micro(rng=model_rng)
    projector = ProjectionHead(encoder.feature_dim, out_dim=8, rng=model_rng)
    scorer = ContrastScorer(encoder, projector)
    if policy_kind == "cs":
        policy = ContrastScoringPolicy(scorer, buffer_size)
    elif policy_kind == "random":
        policy = RandomReplacePolicy(buffer_size, np.random.default_rng(2))
    else:
        policy = FIFOPolicy(buffer_size)
    return OnDeviceContrastiveLearner(
        encoder, projector, policy, buffer_size, rng, lr=1e-3
    )


class TestConstruction:
    def test_buffer_size_too_small(self, rng):
        with pytest.raises(ValueError):
            make_learner("cs", rng, buffer_size=1)


class TestProcessSegment:
    def test_single_segment_fills_buffer_and_trains(self, dataset, rng):
        learner = make_learner("cs", rng)
        segment = StreamSegment(
            dataset.sample(np.array([0, 1, 2, 3]), rng),
            np.array([0, 1, 2, 3]),
            0,
        )
        stats = learner.process_segment(segment)
        assert isinstance(stats, StepStats)
        assert learner.buffer.size == 4
        assert learner.seen_inputs == 4
        assert learner.iteration == 1
        assert np.isfinite(stats.loss)
        assert stats.select_seconds >= 0
        assert stats.train_seconds > 0

    def test_rejects_empty_segment(self, dataset, rng):
        learner = make_learner("cs", rng)
        empty = StreamSegment(
            np.zeros((0, 3, 8, 8), dtype=np.float32), np.zeros(0, dtype=np.int64), 0
        )
        with pytest.raises(ValueError):
            learner.process_segment(empty)

    def test_training_changes_weights(self, dataset, rng):
        learner = make_learner("cs", rng)
        before = learner.encoder.stem_conv.weight.data.copy()
        segment = StreamSegment(
            dataset.sample(np.array([0, 1, 2, 3]), rng), np.array([0, 1, 2, 3]), 0
        )
        learner.process_segment(segment)
        assert np.abs(learner.encoder.stem_conv.weight.data - before).max() > 0

    def test_loss_generally_decreases(self, dataset, rng):
        learner = make_learner("random", rng)
        stream = TemporalStream(dataset, stc=4, rng=rng)
        losses = [
            learner.process_segment(seg).loss
            for seg in stream.segments(4, 160)
        ]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_history_accumulates(self, dataset, rng):
        learner = make_learner("fifo", rng)
        stream = TemporalStream(dataset, stc=2, rng=rng)
        for seg in stream.segments(4, 20):
            learner.process_segment(seg)
        assert len(learner.history) == 5
        assert learner.history[-1].seen_inputs == 20

    def test_timing_accessors(self, dataset, rng):
        learner = make_learner("cs", rng)
        assert learner.mean_select_seconds() == 0.0
        assert learner.mean_train_seconds() == 0.0
        stream = TemporalStream(dataset, stc=2, rng=rng)
        for seg in stream.segments(4, 12):
            learner.process_segment(seg)
        assert learner.mean_select_seconds() > 0.0
        assert learner.mean_train_seconds() > 0.0


class TestNonFiniteSegments:
    """A NaN or infinite pixel is rejected before any policy or the
    buffer sees it: it would reach every parameter within a few steps
    while the loss still read finite."""

    @pytest.mark.parametrize("name", policy_names())
    def test_rejected_with_state_unchanged(self, dataset, rng, name):
        model_rng = np.random.default_rng(1)
        encoder = resnet_micro(rng=model_rng)
        projector = ProjectionHead(encoder.feature_dim, out_dim=8, rng=model_rng)
        policy = create_policy(
            name,
            capacity=4,
            scorer=ContrastScorer(encoder, projector),
            rng=np.random.default_rng(2),
        )
        learner = OnDeviceContrastiveLearner(encoder, projector, policy, 4, rng, lr=1e-3)
        labels = np.array([0, 1, 2, 3])
        learner.process_segment(StreamSegment(dataset.sample(labels, rng), labels, 0))
        images = dataset.sample(labels, rng)
        images[0, 0, 0, 0] = np.nan
        images[2, 1, 3, 4] = np.inf
        images[3, 2, 7, 7] = -np.inf
        before = {key: value.copy() for key, value in learner.state_dict().items()}
        rng_before = rng.bit_generator.state
        with pytest.raises(ValueError, match="iteration 1 holds 3 non-finite values"):
            learner.process_segment(StreamSegment(images, labels, 1))
        after = learner.state_dict()
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert after[key].tobytes() == value.tobytes(), key
        assert rng.bit_generator.state == rng_before
        assert learner.iteration == 1 and len(learner.history) == 1


class TestLabelTracking:
    def test_buffer_labels_track_contents_fifo(self, dataset, rng):
        """FIFO with segment == buffer: labels equal the last segment's."""
        learner = make_learner("fifo", rng)
        stream = TemporalStream(dataset, stc=2, rng=rng)
        last = None
        for seg in stream.segments(4, 40):
            learner.process_segment(seg)
            last = seg
        np.testing.assert_array_equal(learner.buffer_labels(), last.labels)

    def test_class_histogram_sums_to_buffer_size(self, dataset, rng):
        learner = make_learner("cs", rng)
        stream = TemporalStream(dataset, stc=3, rng=rng)
        for seg in stream.segments(4, 24):
            learner.process_segment(seg)
        hist = learner.buffer_class_histogram(dataset.num_classes)
        assert hist.sum() == learner.buffer.size

    def test_labels_consistent_with_scoring_selection(self, dataset, rng):
        """Cross-check: labels follow the same keep_indices as images."""
        learner = make_learner("cs", rng)
        stream = TemporalStream(dataset, stc=2, rng=rng)
        for seg in stream.segments(4, 32):
            learner.process_segment(seg)
        # every buffered image should be sampled from its recorded class:
        # verify by nearest aligned prototype (classes are well separated)
        labels = learner.buffer_labels()
        protos = dataset.prototypes
        for img, label in zip(learner.buffer.images, labels):
            best = None
            best_dist = np.inf
            for cls in range(dataset.num_classes):
                for dy in range(8):
                    for dx in range(8):
                        rolled = np.roll(protos[cls], (dy, dx), axis=(1, 2))
                        d = float(np.abs(img - rolled).mean())
                        if d < best_dist:
                            best_dist = d
                            best = cls
            assert best == label


class TestStateDict:
    def test_missing_and_unexpected_keys_are_named(self, rng):
        learner = make_learner("fifo", rng)
        state = learner.state_dict()
        del state["buffer_labels"]
        state["optimizer/m99"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(KeyError, match="buffer_labels") as info:
            learner.load_state_dict(state)
        assert "optimizer/m99" in str(info.value)
