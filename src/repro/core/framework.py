"""Stage-1 on-device learning framework (paper Fig. 1, left).

:class:`OnDeviceContrastiveLearner` consumes an unlabeled stream segment
by segment.  Each iteration:

1. the replacement policy selects the next buffer from
   ``[buffer ; incoming segment]`` (labels are never exposed to it);
2. the buffer contents become one training mini-batch: two strong
   SimCLR views are generated and the encoder+projector take one
   NT-Xent gradient step (Eq. 1);
3. bookkeeping: per-entry ages, seen-input counters, timing (scoring
   vs. training time backs the paper's Table I "relative batch time").

Stage 2 (classifier on few labels) lives in
:mod:`repro.train.classifier`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.buffer import DataBuffer
from repro.data.augment import SimCLRAugment
from repro.data.stream import StreamSegment
from repro.nn.layers import Module
from repro.nn.losses import NTXentLoss
from repro.nn.optim import Adam
from repro.nn.serialization import strip_prefix
from repro.nn.tensor import Tensor
from repro.selection.base import ReplacementPolicy

__all__ = [
    "StepStats",
    "OnDeviceContrastiveLearner",
    "MODEL_PREFIXES",
    "model_slice",
    "model_slice_from",
    "load_model_slice",
]

#: Learner state keys that make up "the model" — the slice a fleet
#: aggregates and broadcasts and the serve tier publishes: encoder and
#: projector arrays (parameters and BN statistics).  Optimizer moments,
#: buffer contents and counters stay on the device.
MODEL_PREFIXES = ("encoder/", "projector/")


def model_slice(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The model slice of a learner state (the arrays, not copies)."""
    return {key: value for key, value in state.items() if key.startswith(MODEL_PREFIXES)}


def model_slice_from(encoder: Module, projector: Module) -> Dict[str, np.ndarray]:
    """The model slice of live modules, keyed as in a learner state."""
    out: Dict[str, np.ndarray] = {}
    for prefix, module in zip(MODEL_PREFIXES, (encoder, projector)):
        for key, value in module.state_dict().items():
            out[prefix + key] = value
    return out


def load_model_slice(
    state: Dict[str, np.ndarray], encoder: Module, projector: Module
) -> None:
    """Load the model slice in ``state`` into the two modules (copied in)."""
    for prefix, module in zip(MODEL_PREFIXES, (encoder, projector)):
        module.load_state_dict(strip_prefix(state, prefix))


@dataclass
class StepStats:
    """Diagnostics of one replacement + training iteration."""

    iteration: int
    seen_inputs: int
    loss: float
    buffer_size: int
    num_scored: int
    select_seconds: float
    train_seconds: float
    info: Dict[str, float] = field(default_factory=dict)


class OnDeviceContrastiveLearner:
    """Self-supervised learner over an unlabeled, non-iid input stream.

    Parameters
    ----------
    encoder, projector:
        The model ``f`` and projection head ``g`` updated by training.
    policy:
        Replacement policy maintaining the buffer (the paper's
        :class:`~repro.core.replacement.ContrastScoringPolicy` or a
        baseline from :mod:`repro.selection`).
    buffer_size:
        Buffer capacity N = training mini-batch size.
    rng:
        Drives augmentation randomness.
    temperature, lr, weight_decay:
        NT-Xent temperature and Adam hyper-parameters (paper defaults:
        τ=0.5, lr=1e-4, wd=1e-4 for CIFAR-scale data).
    augment:
        The strong two-view augmentation (SimCLR family).
    """

    def __init__(
        self,
        encoder: Module,
        projector: Module,
        policy: ReplacementPolicy,
        buffer_size: int,
        rng: np.random.Generator,
        temperature: float = 0.5,
        lr: float = 1e-3,
        weight_decay: float = 1e-4,
        augment: Optional[SimCLRAugment] = None,
    ) -> None:
        if buffer_size < 2:
            raise ValueError(
                f"buffer_size must be >= 2 (NT-Xent needs negatives), got {buffer_size}"
            )
        self.encoder = encoder
        self.projector = projector
        self.policy = policy
        self.buffer = DataBuffer(buffer_size)
        self.rng = rng
        self.loss_fn = NTXentLoss(temperature)
        self.optimizer = Adam(
            [*encoder.parameters(), *projector.parameters()],
            lr=lr,
            weight_decay=weight_decay,
        )
        self.augment = augment if augment is not None else SimCLRAugment()
        self.iteration = 0
        self.seen_inputs = 0
        self._buffer_labels = np.zeros(0, dtype=np.int64)
        self.history: List[StepStats] = []

    # ------------------------------------------------------------------
    def process_segment(self, segment: StreamSegment) -> StepStats:
        """One framework iteration: replace buffer data, then train once.

        A segment holding any NaN or infinite value raises
        :class:`ValueError` (naming the iteration and the count) before
        the policy or the buffer sees it.
        """
        incoming = segment.images
        if incoming.ndim != 4 or incoming.shape[0] == 0:
            raise ValueError(
                f"segment must be a non-empty NCHW batch, got shape "
                f"{segment.images.shape}"
            )
        # One NaN pixel would reach every parameter within a few steps,
        # while ReLU (NaN -> 0) keeps the reported loss finite.
        finite = np.isfinite(incoming)
        if not finite.all():
            raise ValueError(
                f"segment at iteration {self.iteration} holds "
                f"{finite.size - np.count_nonzero(finite)} non-finite values "
                "(NaN or inf)"
            )

        # --- 1. data replacement (labels hidden from the policy) -------
        t0 = time.perf_counter()
        result = self.policy.select(self.buffer, incoming, self.iteration)
        select_seconds = time.perf_counter() - t0

        pool_images = (
            np.concatenate([self.buffer.images, incoming], axis=0)
            if self.buffer.size
            else incoming
        )
        pool_labels = np.concatenate([self._buffer_labels, segment.labels])
        self.buffer.replace(
            pool_images, result.keep_indices, result.pool_scores, self.iteration
        )
        self._buffer_labels = pool_labels[result.keep_indices]

        # --- 2. one contrastive update on the buffer mini-batch --------
        t1 = time.perf_counter()
        loss_value = self._train_step()
        train_seconds = time.perf_counter() - t1

        # --- 3. bookkeeping --------------------------------------------
        self.seen_inputs += incoming.shape[0]
        stats = StepStats(
            iteration=self.iteration,
            seen_inputs=self.seen_inputs,
            loss=loss_value,
            buffer_size=self.buffer.size,
            num_scored=result.num_scored,
            select_seconds=select_seconds,
            train_seconds=train_seconds,
            info=dict(result.info),
        )
        self.history.append(stats)
        self.iteration += 1
        return stats

    def _train_step(self) -> float:
        """One NT-Xent gradient step on the current buffer contents."""
        if self.buffer.size < 2:
            return float("nan")  # not enough data to form negatives yet
        images = self.buffer.as_batch()
        v1, v2 = self.augment(images, self.rng)
        self.encoder.train()
        self.projector.train()
        z1 = self.projector(self.encoder(Tensor(v1)))
        z2 = self.projector(self.encoder(Tensor(v2)))
        loss = self.loss_fn(z1, z2)
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return float(loss.item())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    #: Per-step scalars serialized into the ``history`` array, in column
    #: order.  ``StepStats.info`` is diagnostic-only and not persisted.
    _HISTORY_FIELDS = (
        "iteration",
        "seen_inputs",
        "loss",
        "buffer_size",
        "num_scored",
        "select_seconds",
        "train_seconds",
    )

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Everything needed to resume training bitwise-identically,
        under interned keys (a fleet's stored states share one set).

        Covers model weights, optimizer moments, buffer contents and
        bookkeeping, hidden label tracking, iteration counters, and the
        scalar step history.  Randomness (augment RNG) is *not* included
        — the generators are injected and belong to the caller's
        :class:`~repro.utils.rng.RngRegistry`, which snapshots them via
        ``RngRegistry.state()``.
        """
        out = model_slice_from(self.encoder, self.projector)
        for key, value in self.optimizer.state_dict().items():
            out[f"optimizer/{key}"] = value
        for key, value in self.buffer.state_dict().items():
            out[f"buffer/{key}"] = value
        out["buffer_labels"] = self._buffer_labels.copy()
        out["iteration"] = np.array(self.iteration, dtype=np.int64)
        out["seen_inputs"] = np.array(self.seen_inputs, dtype=np.int64)
        out["history"] = np.array(
            [
                [getattr(s, name) for name in self._HISTORY_FIELDS]
                for s in self.history
            ],
            dtype=np.float64,
        ).reshape(len(self.history), len(self._HISTORY_FIELDS))
        return {sys.intern(key): value for key, value in out.items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore the exact state written by :meth:`state_dict`.

        The keys must be exactly this learner's own: a missing or an
        unexpected key raises :class:`KeyError` naming both lists, like
        :meth:`repro.nn.layers.Module.load_state_dict` (checkpoints,
        fleet device states and the global overlay all enter here).
        """
        expected = self.state_dict().keys()
        missing = [key for key in expected if key not in state]
        unexpected = [key for key in state if key not in expected]
        if missing or unexpected:
            raise KeyError(
                f"learner state mismatch: missing={missing}, unexpected={unexpected}"
            )
        load_model_slice(state, self.encoder, self.projector)
        self.optimizer.load_state_dict(strip_prefix(state, "optimizer/"))
        self.buffer.load_state_dict(strip_prefix(state, "buffer/"))
        self._buffer_labels = np.asarray(state["buffer_labels"], dtype=np.int64).copy()
        self.iteration = int(state["iteration"])
        self.seen_inputs = int(state["seen_inputs"])
        self.history = [
            StepStats(
                iteration=int(row[0]),
                seen_inputs=int(row[1]),
                loss=float(row[2]),
                buffer_size=int(row[3]),
                num_scored=int(row[4]),
                select_seconds=float(row[5]),
                train_seconds=float(row[6]),
            )
            for row in np.asarray(state["history"], dtype=np.float64)
        ]

    # ------------------------------------------------------------------
    # Evaluation-only introspection (never available to the policy).
    # ------------------------------------------------------------------
    def buffer_labels(self) -> np.ndarray:
        """Ground-truth labels of current buffer entries (diagnostics)."""
        return self._buffer_labels.copy()

    def buffer_class_histogram(self, num_classes: int) -> np.ndarray:
        """Class counts of the buffer contents (diversity diagnostics)."""
        return np.bincount(self._buffer_labels, minlength=num_classes)

    def mean_select_seconds(self) -> float:
        """Average policy-selection time per iteration so far."""
        if not self.history:
            return 0.0
        return float(np.mean([s.select_seconds for s in self.history]))

    def mean_train_seconds(self) -> float:
        """Average model-update time per iteration so far."""
        if not self.history:
            return 0.0
        return float(np.mean([s.train_seconds for s in self.history]))
