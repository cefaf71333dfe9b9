"""Tests for the stage-2 linear probe."""

import numpy as np
import pytest

from repro.core.scoring import encoder_features
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.nn.resnet import resnet_micro
from repro.train.classifier import LinearProbe, evaluate_encoder


@pytest.fixture
def rng():
    return np.random.default_rng(71)


@pytest.fixture
def dataset():
    return SyntheticImageDataset(
        SyntheticConfig("probe", num_classes=3, image_size=8, shift_fraction=0.05)
    )


@pytest.fixture
def encoder():
    return resnet_micro(rng=np.random.default_rng(2))


class TestLinearProbe:
    def test_validation(self, encoder, rng):
        with pytest.raises(ValueError):
            LinearProbe(encoder, 1, rng)
        with pytest.raises(ValueError):
            LinearProbe(encoder, 3, rng, epochs=0)

    def test_encoder_without_feature_dim_rejected(self, rng):
        class Bare:
            pass

        with pytest.raises(ValueError):
            LinearProbe(Bare(), 3, rng)

    def test_extract_features_shape(self, encoder, dataset, rng):
        probe = LinearProbe(encoder, 3, rng, epochs=2)
        x, _ = dataset.make_split(4, rng)
        feats = probe.extract_features(x)
        assert feats.shape == (12, encoder.feature_dim)

    def test_extract_features_are_the_encoder_features(self, encoder, dataset, rng):
        probe = LinearProbe(encoder, 3, rng)
        x, _ = dataset.make_split(15, rng)
        assert probe.extract_features(x).tobytes() == encoder_features(encoder, x).tobytes()

    def test_fit_on_separable_features(self, encoder, rng):
        """The head must learn a linearly separable toy problem."""
        probe = LinearProbe(encoder, 3, rng, epochs=60, lr=1e-2)
        n = 90
        labels = np.arange(n) % 3
        feats = np.zeros((n, encoder.feature_dim), dtype=np.float32)
        feats[np.arange(n), labels] = 1.0
        feats += rng.normal(0, 0.05, feats.shape).astype(np.float32)
        train_acc = probe.fit(feats, labels)
        assert train_acc > 0.95

    def test_mismatched_inputs_raise(self, encoder, rng):
        probe = LinearProbe(encoder, 3, rng, epochs=1)
        with pytest.raises(ValueError):
            probe.fit(np.zeros((4, encoder.feature_dim)), np.zeros(3, dtype=int))

    def test_predict_shape(self, encoder, dataset, rng):
        probe = LinearProbe(encoder, 3, rng, epochs=1)
        x, y = dataset.make_split(2, rng)
        feats = probe.extract_features(x)
        probe.fit(feats, y)
        preds = probe.predict(x)
        assert preds.shape == y.shape
        assert set(np.unique(preds)).issubset({0, 1, 2})

    def test_probe_does_not_change_encoder(self, encoder, dataset, rng):
        before = encoder.stem_conv.weight.data.copy()
        probe = LinearProbe(encoder, 3, rng, epochs=3)
        x, y = dataset.make_split(4, rng)
        probe.fit(probe.extract_features(x), y)
        np.testing.assert_array_equal(encoder.stem_conv.weight.data, before)


class TestEvaluateEncoder:
    def test_full_protocol(self, encoder, dataset, rng):
        train_x, train_y = dataset.make_split(10, rng)
        test_x, test_y = dataset.make_split(5, rng)
        result = evaluate_encoder(
            encoder, train_x, train_y, test_x, test_y, 3, rng, epochs=10
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert result.num_labeled == 30
        assert result.label_fraction == 1.0

    def test_label_fraction_respected(self, encoder, dataset, rng):
        train_x, train_y = dataset.make_split(20, rng)
        test_x, test_y = dataset.make_split(5, rng)
        result = evaluate_encoder(
            encoder,
            train_x,
            train_y,
            test_x,
            test_y,
            3,
            rng,
            label_fraction=0.1,
            epochs=5,
        )
        assert result.num_labeled == 6  # 2 per class

    def test_more_labels_help_on_trained_encoder(self, dataset, rng):
        """Sanity: accuracy with 100% labels >= accuracy with tiny labels
        (on average; deterministic given the seeds used here)."""
        encoder = resnet_micro(rng=np.random.default_rng(4))
        train_x, train_y = dataset.make_split(30, rng)
        test_x, test_y = dataset.make_split(10, rng)
        full = evaluate_encoder(
            encoder, train_x, train_y, test_x, test_y, 3,
            np.random.default_rng(0), label_fraction=1.0, epochs=20,
        )
        tiny = evaluate_encoder(
            encoder, train_x, train_y, test_x, test_y, 3,
            np.random.default_rng(0), label_fraction=0.05, epochs=20,
        )
        assert full.accuracy >= tiny.accuracy - 0.05
