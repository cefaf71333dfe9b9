"""Tests for the supervised baseline (§IV-B reference)."""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.nn.backend import use_backend
from repro.nn.resnet import EVAL_BLOCK, resnet_micro
from repro.train.supervised import SupervisedBaseline


@pytest.fixture
def rng():
    return np.random.default_rng(81)


@pytest.fixture
def dataset():
    return SyntheticImageDataset(
        SyntheticConfig(
            "sup", num_classes=3, image_size=8, shift_fraction=0.05, noise_std=0.03
        )
    )


class TestSupervisedBaseline:
    def test_validation(self, rng):
        encoder = resnet_micro(rng=rng)
        with pytest.raises(ValueError):
            SupervisedBaseline(encoder, 1, rng)

    def test_encoder_without_feature_dim(self, rng):
        class Bare:
            pass

        with pytest.raises(ValueError):
            SupervisedBaseline(Bare(), 3, rng)

    def test_fit_learns_easy_data(self, dataset, rng):
        encoder = resnet_micro(rng=np.random.default_rng(1))
        baseline = SupervisedBaseline(
            encoder, 3, rng, lr=2e-3, epochs=20, batch_size=16
        )
        x, y = dataset.make_split(16, rng)
        train_acc = baseline.fit(x, y)
        assert train_acc > 0.6  # far above 1/3 chance

    def test_fit_rejects_mismatch(self, dataset, rng):
        baseline = SupervisedBaseline(resnet_micro(rng=rng), 3, rng, epochs=1)
        x, _ = dataset.make_split(2, rng)
        with pytest.raises(ValueError):
            baseline.fit(x, np.zeros(3, dtype=int))

    def test_fit_rejects_too_few(self, dataset, rng):
        baseline = SupervisedBaseline(resnet_micro(rng=rng), 3, rng, epochs=1)
        x, y = dataset.make_split(1, rng)
        with pytest.raises(ValueError):
            baseline.fit(x[:1], y[:1])

    def test_predict_and_score(self, dataset, rng):
        encoder = resnet_micro(rng=np.random.default_rng(1))
        baseline = SupervisedBaseline(encoder, 3, rng, epochs=3, batch_size=8)
        x, y = dataset.make_split(6, rng)
        baseline.fit(x, y)
        preds = baseline.predict(x)
        assert preds.shape == y.shape
        assert 0.0 <= baseline.score(x, y) <= 1.0

    def test_predict_does_not_depend_on_the_batch(self, dataset, rng):
        """One forward over the whole batch predicts what its pieces do
        (the encoder blocks an eval batch itself)."""
        baseline = SupervisedBaseline(resnet_micro(rng=np.random.default_rng(1)), 3, rng)
        x, _ = dataset.make_split(EVAL_BLOCK, rng)  # three blocks: 3 classes
        with use_backend("numpy"):
            whole = baseline.predict(x)
            pieces = np.concatenate([baseline.predict(x[i : i + 10]) for i in range(0, len(x), 10)])
        assert whole.shape == (len(x),)
        np.testing.assert_array_equal(whole, pieces)

    def test_predict_empty_batch(self, rng):
        baseline = SupervisedBaseline(resnet_micro(rng=rng), 3, rng)
        assert baseline.predict(np.zeros((0, 3, 8, 8), np.float32)).shape == (0,)

    def test_generalizes_to_test_data(self, dataset, rng):
        encoder = resnet_micro(rng=np.random.default_rng(1))
        baseline = SupervisedBaseline(
            encoder, 3, rng, lr=2e-3, epochs=25, batch_size=16
        )
        train_x, train_y = dataset.make_split(20, rng)
        test_x, test_y = dataset.make_split(8, rng)
        baseline.fit(train_x, train_y)
        assert baseline.score(test_x, test_y) > 0.5
