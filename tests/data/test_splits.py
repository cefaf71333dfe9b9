"""Tests for label-fraction splits."""

import numpy as np
import pytest

from repro.data.splits import labeled_subset


@pytest.fixture
def rng():
    return np.random.default_rng(8)


class TestLabeledSubset:
    def test_full_fraction_returns_all(self, rng):
        labels = np.array([0, 1, 2, 0, 1, 2])
        idx = labeled_subset(labels, 1.0, rng)
        assert sorted(idx) == list(range(6))

    def test_fraction_size(self, rng):
        labels = np.repeat(np.arange(10), 100)
        idx = labeled_subset(labels, 0.1, rng)
        assert len(idx) == 100

    def test_stratified(self, rng):
        labels = np.repeat(np.arange(5), 50)
        idx = labeled_subset(labels, 0.2, rng)
        picked = labels[idx]
        counts = np.bincount(picked, minlength=5)
        np.testing.assert_array_equal(counts, [10] * 5)

    def test_at_least_one_per_class(self, rng):
        labels = np.repeat(np.arange(20), 5)
        idx = labeled_subset(labels, 0.01, rng)
        assert set(labels[idx]) == set(range(20))

    def test_no_duplicates(self, rng):
        labels = np.repeat(np.arange(4), 25)
        idx = labeled_subset(labels, 0.5, rng)
        assert len(idx) == len(set(idx.tolist()))

    def test_invalid_fraction_raises(self, rng):
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ValueError):
            labeled_subset(labels, 0.0, rng)
        with pytest.raises(ValueError):
            labeled_subset(labels, 1.5, rng)

    def test_empty_labels_raises(self, rng):
        with pytest.raises(ValueError):
            labeled_subset(np.array([]), 0.5, rng)

    def test_unbalanced_classes(self, rng):
        labels = np.concatenate([np.zeros(90, dtype=int), np.ones(10, dtype=int)])
        idx = labeled_subset(labels, 0.1, rng)
        picked = labels[idx]
        assert (picked == 0).sum() == 9
        assert (picked == 1).sum() == 1


class TestDatasetRegistry:
    def test_all_names_present(self):
        from repro.data.datasets import dataset_names

        assert dataset_names() == [
            "cifar10",
            "cifar100",
            "imagenet100",
            "imagenet20",
            "imagenet50",
            "svhn",
        ]

    def test_class_counts_match_paper(self):
        from repro.data.datasets import get_dataset_config

        expected = {
            "cifar10": 10,
            "cifar100": 100,
            "svhn": 10,
            "imagenet20": 20,
            "imagenet50": 50,
            "imagenet100": 100,
        }
        for name, classes in expected.items():
            assert get_dataset_config(name).num_classes == classes

    def test_unknown_name_raises(self):
        from repro.data.datasets import get_dataset_config

        with pytest.raises(KeyError):
            get_dataset_config("mnist")

    def test_image_size_override(self):
        from repro.data.datasets import get_dataset_config, make_dataset

        cfg = get_dataset_config("cifar10", image_size=8)
        assert cfg.image_size == 8
        ds = make_dataset("cifar10", image_size=8)
        assert ds.image_shape == (3, 8, 8)

    def test_imagenet_higher_resolution_than_cifar(self):
        from repro.data.datasets import get_dataset_config

        assert (
            get_dataset_config("imagenet20").image_size
            > get_dataset_config("cifar10").image_size
        )
