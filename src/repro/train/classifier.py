"""Stage 2: classifier training on top of the frozen encoder (paper
Fig. 1, right).

After stage-1 contrastive learning improves the encoder, a linear
classifier is trained on encoder features using the few labeled samples
sent to the server (1% / 10% / 100% of a labeled pool).  The encoder is
frozen and run in eval mode, matching the paper's evaluation protocol
("train a classifier with 1%, 10%, or 100% labeled data on the learned
encoder").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.scoring import encoder_features
from repro.data.splits import labeled_subset
from repro.metrics.accuracy import top1_accuracy
from repro.nn.layers import Linear, Module
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad

__all__ = ["LinearProbe", "ProbeResult", "evaluate_encoder"]


@dataclass
class ProbeResult:
    """Outcome of one stage-2 training run."""

    accuracy: float
    train_accuracy: float
    num_labeled: int
    label_fraction: float
    epochs: int


class LinearProbe:
    """Linear classifier trained on frozen encoder features.

    Parameters
    ----------
    encoder: frozen stage-1 encoder (eval mode enforced internally).
    num_classes: classifier output dimension.
    lr, epochs, batch_size: Adam training schedule (paper: Adam,
        lr 3e-4, hundreds of epochs; scaled here).
    rng: initialization and shuffling randomness.
    """

    def __init__(
        self,
        encoder: Module,
        num_classes: int,
        rng: np.random.Generator,
        lr: float = 3e-3,
        epochs: int = 60,
        batch_size: int = 64,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {num_classes}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.encoder = encoder
        self.num_classes = num_classes
        self.rng = rng
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        feature_dim = getattr(encoder, "feature_dim", None)
        if feature_dim is None:
            raise ValueError("encoder must expose feature_dim")
        self.head = Linear(feature_dim, num_classes, rng=rng)

    # ------------------------------------------------------------------
    def extract_features(self, images: np.ndarray) -> np.ndarray:
        """Frozen-encoder features for ``images`` (eval mode, no grads)."""
        return encoder_features(self.encoder, images)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Train the linear head on precomputed features; returns final
        training accuracy."""
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"features/labels mismatch: {features.shape[0]} vs {labels.shape[0]}"
            )
        if features.shape[0] < 1:
            raise ValueError("no training data")
        optimizer = Adam(self.head.parameters(), lr=self.lr)
        n = features.shape[0]
        batch = min(self.batch_size, n)
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                logits = self.head(Tensor(features[idx]))
                loss = cross_entropy(logits, labels[idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        return self.score_features(features, labels)

    def predict_features(self, features: np.ndarray) -> np.ndarray:
        """Predicted class ids for precomputed features."""
        with no_grad():
            logits = self.head(Tensor(features)).data
        return logits.argmax(axis=1)

    def score_features(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy on precomputed features."""
        return top1_accuracy(self.predict_features(features), labels)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Predicted class ids for raw images."""
        return self.predict_features(self.extract_features(images))

    def score(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy on raw images."""
        return top1_accuracy(self.predict(images), labels)


def evaluate_encoder(
    encoder: Module,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    num_classes: int,
    rng: np.random.Generator,
    label_fraction: float = 1.0,
    lr: float = 3e-3,
    epochs: int = 60,
    batch_size: int = 64,
) -> ProbeResult:
    """Full stage-2 evaluation: select a label fraction, probe, test.

    This is the paper's measurement protocol for every figure/table:
    contrastive learning quality is read out as the test accuracy of a
    classifier trained on ``label_fraction`` of the labeled pool.
    """
    probe = LinearProbe(
        encoder, num_classes, rng, lr=lr, epochs=epochs, batch_size=batch_size
    )
    subset = labeled_subset(train_labels, label_fraction, rng)
    train_features = probe.extract_features(train_images[subset])
    train_acc = probe.fit(train_features, train_labels[subset])
    test_features = probe.extract_features(test_images)
    accuracy = probe.score_features(test_features, test_labels)
    return ProbeResult(
        accuracy=accuracy,
        train_accuracy=train_acc,
        num_labeled=int(subset.size),
        label_fraction=label_fraction,
        epochs=epochs,
    )
