"""Tests for the kNN readout."""

import numpy as np
import pytest

from repro.core.scoring import encoder_features
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.metrics.accuracy import top1_accuracy
from repro.nn.resnet import resnet_micro
from repro.train.knn import KnnProbe, knn_predict


@pytest.fixture
def rng():
    return np.random.default_rng(15)


class TestKnnPredict:
    def test_memorizes_bank_with_k1(self, rng):
        feats = rng.normal(size=(20, 8))
        labels = rng.integers(0, 4, size=20)
        preds = knn_predict(feats, labels, feats, k=1)
        np.testing.assert_array_equal(preds, labels)

    def test_separable_clusters(self, rng):
        centers = np.eye(3) * 10
        bank = np.concatenate([c + rng.normal(0, 0.1, (10, 3)) for c in centers])
        bank_labels = np.repeat(np.arange(3), 10)
        queries = np.concatenate([c + rng.normal(0, 0.1, (5, 3)) for c in centers])
        query_labels = np.repeat(np.arange(3), 5)
        preds = knn_predict(bank, bank_labels, queries, k=5)
        np.testing.assert_array_equal(preds, query_labels)

    def test_k_clamped_to_bank_size(self, rng):
        feats = rng.normal(size=(3, 4))
        labels = np.array([0, 1, 2])
        preds = knn_predict(feats, labels, feats, k=100)
        assert preds.shape == (3,)

    def test_majority_vote(self):
        bank = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        labels = np.array([0, 0, 1])
        query = np.array([[1.0, 0.05]])
        assert knn_predict(bank, labels, query, k=3)[0] == 0

    def test_cosine_not_euclidean(self):
        """Scaled copies of a bank vector are perfect matches."""
        bank = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        query = np.array([[100.0, 1.0]])
        assert knn_predict(bank, labels, query, k=1)[0] == 0

    def test_validation(self, rng):
        feats = rng.normal(size=(4, 3))
        labels = np.zeros(4, dtype=int)
        with pytest.raises(ValueError):
            knn_predict(feats, labels[:2], feats, k=1)
        with pytest.raises(ValueError):
            knn_predict(feats, labels, feats, k=0)
        with pytest.raises(ValueError):
            knn_predict(np.zeros((0, 3)), np.zeros(0, dtype=int), feats, k=1)
        with pytest.raises(ValueError):
            knn_predict(rng.normal(size=(4,)), labels, feats, k=1)

    def test_num_classes_override(self, rng):
        feats = rng.normal(size=(4, 3))
        labels = np.array([0, 0, 1, 1])
        preds = knn_predict(feats, labels, feats, k=1, num_classes=10)
        assert preds.max() <= 1


class TestKnnProbe:
    def test_score_range_and_better_than_chance_on_easy_data(self, rng):
        dataset = SyntheticImageDataset(
            SyntheticConfig("knn", 3, 8, shift_fraction=0.05, noise_std=0.03)
        )
        encoder = resnet_micro(rng=np.random.default_rng(2))
        probe = KnnProbe(encoder, k=5)
        train_x, train_y = dataset.make_split(15, rng)
        test_x, test_y = dataset.make_split(6, rng)
        acc = probe.score(train_x, train_y, test_x, test_y, num_classes=3)
        assert 0.0 <= acc <= 1.0
        # even an untrained encoder preserves some pixel structure
        assert acc > 1.0 / 3 - 0.1

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            KnnProbe(resnet_micro(rng=rng), k=0)

    def test_score_is_knn_on_the_encoder_features(self, rng):
        """The readout embeds both pools with the frozen encoder (one
        eval feature path) and leaves its training mode alone."""
        dataset = SyntheticImageDataset(SyntheticConfig("knn", 3, 8))
        encoder = resnet_micro(rng=np.random.default_rng(4)).train()
        train_x, train_y = dataset.make_split(15, rng)
        test_x, test_y = dataset.make_split(6, rng)
        acc = KnnProbe(encoder, k=3).score(train_x, train_y, test_x, test_y, num_classes=3)
        assert encoder.training
        predictions = knn_predict(
            encoder_features(encoder, train_x),
            train_y,
            encoder_features(encoder, test_x),
            k=3,
            num_classes=3,
        )
        assert acc == top1_accuracy(predictions, test_y)
