"""Classification accuracy metrics."""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["top1_accuracy", "per_class_accuracy"]


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches between predictions and labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs labels {labels.shape}"
        )
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float((predictions == labels).mean())


def per_class_accuracy(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Accuracy within each class; NaN for classes absent from labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    out = np.full(num_classes, np.nan)
    for cls in range(num_classes):
        mask = labels == cls
        if mask.any():
            out[cls] = float((predictions[mask] == cls).mean())
    return out
