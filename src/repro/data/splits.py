"""Label-fraction splits for stage-2 classifier training.

The paper trains the classifier with 1%, 10%, or 100% labeled data; in
the on-device story these are the few samples sent to a server for
labeling.  :func:`labeled_subset` performs the stratified selection.
"""

from __future__ import annotations

import numpy as np

__all__ = ["labeled_subset"]


def labeled_subset(
    labels: np.ndarray, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a stratified ``fraction`` subset of ``labels``.

    Guarantees at least one sample per class that appears in ``labels``
    (a classifier cannot learn a class with zero examples), so very
    small fractions on many-class datasets select slightly more than
    ``fraction`` of the data.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D array")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return np.arange(labels.size)
    picked = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        count = max(1, int(round(fraction * idx.size)))
        picked.append(rng.choice(idx, size=count, replace=False))
    out = np.concatenate(picked)
    rng.shuffle(out)
    return out
