"""k-nearest-neighbour readout on frozen encoder features.

A training-free alternative to the stage-2 linear probe, standard in
the self-supervised literature for monitoring representation quality
along a run: classify each test feature by majority vote of its k
nearest (cosine similarity) labeled features.  Cheaper than the linear
probe, so experiment harnesses can evaluate more checkpoints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.scoring import encoder_features
from repro.metrics.accuracy import top1_accuracy
from repro.nn.layers import Module

__all__ = ["knn_predict", "KnnProbe"]


def knn_predict(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    k: int = 5,
    num_classes: Optional[int] = None,
) -> np.ndarray:
    """Cosine-similarity kNN class predictions.

    Parameters
    ----------
    train_features: ``(N, d)`` labeled bank.
    train_labels: ``(N,)`` integer labels.
    test_features: ``(M, d)`` queries.
    k: neighbours per vote (clamped to N).
    num_classes: vote space size (inferred from labels when None).
    """
    train_features = np.asarray(train_features, dtype=np.float64)
    test_features = np.asarray(test_features, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    if train_features.ndim != 2 or test_features.ndim != 2:
        raise ValueError("features must be 2-D (N, d)")
    if train_features.shape[0] != train_labels.shape[0]:
        raise ValueError(
            f"bank size mismatch: {train_features.shape[0]} features vs "
            f"{train_labels.shape[0]} labels"
        )
    if train_features.shape[0] == 0:
        raise ValueError("empty feature bank")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, train_features.shape[0])
    if num_classes is None:
        num_classes = int(train_labels.max()) + 1

    def normalize(x: np.ndarray) -> np.ndarray:
        return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)

    sims = normalize(test_features) @ normalize(train_features).T  # (M, N)
    top = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
    votes = train_labels[top]  # (M, k)
    predictions = np.empty(test_features.shape[0], dtype=np.int64)
    for i in range(votes.shape[0]):
        counts = np.bincount(votes[i], minlength=num_classes)
        predictions[i] = counts.argmax()
    return predictions


class KnnProbe:
    """Training-free encoder evaluation via kNN on the frozen encoder's
    features (:func:`repro.core.scoring.encoder_features`)."""

    def __init__(self, encoder: Module, k: int = 5) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.encoder = encoder
        self.k = k

    def score(
        self,
        train_images: np.ndarray,
        train_labels: np.ndarray,
        test_images: np.ndarray,
        test_labels: np.ndarray,
        num_classes: Optional[int] = None,
    ) -> float:
        """Top-1 kNN accuracy of the frozen encoder."""
        bank = encoder_features(self.encoder, train_images)
        queries = encoder_features(self.encoder, test_images)
        predictions = knn_predict(
            bank, train_labels, queries, k=self.k, num_classes=num_classes
        )
        return top1_accuracy(predictions, test_labels)
