"""Loss functions: the NT-Xent contrastive loss (paper Eq. 1) and
cross-entropy for the stage-2 classifier / supervised baselines.

Precision policy
----------------
The differentiable losses compute at the dtype of their inputs
(float32 throughout the nn stack).  The *gradient-free* per-sample
reduction :meth:`NTXentLoss.per_sample` accumulates in float64
on every backend: the log-sum-exp runs over 2N similarity terms
spanning the e^{±1/τ} dynamic range, where float32 cancellation would
bias the small per-sample losses Selective-BP ranks by — and the
similarity matrix is tiny next to the encoder forwards, so the wide
accumulation is effectively free.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.backend.base import get_backend
from repro.nn.tensor import Tensor

__all__ = ["nt_xent_loss", "NTXentLoss", "cross_entropy"]


def nt_xent_loss(
    z1: Tensor, z2: Tensor, temperature: float = 0.5
) -> Tensor:
    """Normalized-temperature cross-entropy loss over a batch of pairs.

    Implements paper Eq. 1 summed symmetrically over both view orders,
    averaged over the 2N anchor rows (the SimCLR convention).

    Parameters
    ----------
    z1, z2:
        ``(N, d)`` l2-normalized projections of two augmented views,
        row-aligned (``z1[i]`` and ``z2[i]`` are views of the same image).
    temperature:
        Softmax temperature ``τ``.

    Returns
    -------
    Scalar loss tensor.
    """
    if z1.shape != z2.shape:
        raise ValueError(f"view shapes differ: {z1.shape} vs {z2.shape}")
    if z1.ndim != 2:
        raise ValueError(f"projections must be (N, d), got {z1.shape}")
    n = z1.shape[0]
    if n < 2:
        raise ValueError("NT-Xent needs at least 2 pairs to form negatives")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")

    z = Tensor.concat([z1, z2], axis=0)  # (2N, d)
    sim = (z @ z.T) / temperature  # (2N, 2N)

    # Mask self-similarity with a large negative constant (non-differentiable
    # additive constant, so gradients are unaffected on the kept entries).
    mask = np.zeros((2 * n, 2 * n), dtype=z.data.dtype)
    np.fill_diagonal(mask, -1e9)
    sim = sim + mask

    log_probs = F.log_softmax(sim, axis=1)
    pos_index = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
    rows = np.arange(2 * n)
    pos_log_probs = log_probs[rows, pos_index]
    return -(pos_log_probs.mean())


class NTXentLoss:
    """Callable wrapper around :func:`nt_xent_loss` with a fixed τ."""

    def __init__(self, temperature: float = 0.5) -> None:
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.temperature = temperature

    def __call__(self, z1: Tensor, z2: Tensor) -> Tensor:
        return nt_xent_loss(z1, z2, self.temperature)

    def per_sample(self, z1: Tensor, z2: Tensor) -> np.ndarray:
        """Per-pair loss values ℓ(i, i+) (no gradient), used by Selective-BP.

        Returns the symmetric per-pair loss
        ``(ℓ_{i,i+} + ℓ_{i+,i}) / 2`` as a length-N float64 vector,
        accumulated in float64 (see the module docstring) — the
        buffer-score contract.
        """
        z1d = np.asarray(z1.data, dtype=np.float64)
        z2d = np.asarray(z2.data, dtype=np.float64)
        n = z1d.shape[0]
        z = np.concatenate([z1d, z2d], axis=0)
        sim = get_backend().matmul(z, z.T) / self.temperature
        np.fill_diagonal(sim, -np.inf)
        sim = sim - sim.max(axis=1, keepdims=True)
        log_denominator = np.log(np.exp(sim).sum(axis=1))
        pos_index = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
        rows = np.arange(2 * n)
        log_numerator = sim[rows, pos_index]
        losses = log_denominator - log_numerator
        return ((losses[:n] + losses[n:]) / 2.0).astype(np.float64)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer labels (N,)."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, C), got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"batch mismatch: {logits.shape[0]} logits vs {labels.shape[0]} labels"
        )
    log_probs = F.log_softmax(logits, axis=1)
    picked = log_probs[np.arange(labels.shape[0]), labels]
    return -(picked.mean())
