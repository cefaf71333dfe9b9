"""Contrast scoring — paper Eq. 2-3.

For each candidate image ``x`` the scorer builds the deterministic weak
view ``x+`` (horizontal flip), embeds both through the encoder ``f`` and
projection head ``g``, l2-normalizes, and returns

    S(x) = 1 - z^T z+          with z = g(f(x)) / ||g(f(x))||

so ``S`` lies in [0, 2].  High score = the two views embed differently =
the encoder has not learned an invariant representation of ``x`` yet =
``x`` is valuable training data (and, by the paper's §III-C analysis,
produces a large NT-Xent gradient).

Design principle (paper §III-B): the scoring view must be
*deterministic*.  Randomized strong augmentation would make the score
reflect augmentation luck rather than encoder capability.  Accordingly
the scorer also runs the model in eval mode (batch-norm running
statistics), so a sample's score does not depend on which other samples
happen to share its scoring batch.

Performance
-----------
Scoring is the framework's hot path (the paper's Table I overhead
column measures exactly this), so :meth:`ContrastScorer.score` is fully
batched: ``x`` and ``x+`` are stacked into one scoring pass and the
similarity is a single vectorized reduction — no per-sample Python
loops.  The encoder bounds the pass's working set itself (it runs eval
batches in blocks of at most :data:`repro.nn.resnet.EVAL_BLOCK` images).
:func:`score_batches` extends the same trick across several batches
(the replacement policy uses it to score surviving buffer entries and
incoming stream data in one fused pass), and
:meth:`ContrastScorer.score_loop` keeps the one-image-at-a-time
reference implementation as an executable spec for regression tests and
the perf baseline (``benchmarks/bench_perf_suite.py``).

The forward passes run on the active array backend
(:mod:`repro.nn.backend`): the ``fused`` backend collapses each
conv→BN→ReLU chain into one GEMM with in-place epilogues and keeps the
whole scoring forward in float32 (its ``scoring_dtype``), while the
``numpy`` reference scores at the historical float64.  Scores are
always returned as float64 vectors — the buffer contract — with values
matching across backends to float32 tolerance.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Callable, Iterator, List, Sequence

import numpy as np

from repro.data.augment import horizontal_flip
from repro.nn.backend.base import get_backend
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, no_grad

__all__ = ["ContrastScorer", "content_hash", "encoder_features", "score_batches"]


def content_hash(images: np.ndarray) -> List[str]:
    """Stable per-image content digests for an NCHW batch.

    The digest covers dtype, per-image shape, and raw bytes, so two
    images hash equal exactly when their array contents are identical —
    the cache key contract of the serve layer (:mod:`repro.serve`):
    a cached score may only ever be returned for bit-identical input.
    A single CHW image is accepted as a batch of one.
    """
    if images.ndim == 3:
        images = images[None]
    if images.ndim != 4:
        raise ValueError(f"expected CHW image or NCHW batch, got shape {images.shape}")
    header = f"{images.dtype.str}|{images.shape[1:]}".encode("ascii")
    digests = []
    for i in range(images.shape[0]):
        h = hashlib.blake2b(header, digest_size=16)
        h.update(np.ascontiguousarray(images[i]).tobytes())
        digests.append(h.hexdigest())
    return digests


def encoder_features(encoder: Module, images: np.ndarray) -> np.ndarray:
    """Encoder representations h = f(x) of an NCHW batch (no gradient,
    eval mode).

    Serves the feature-space baselines (K-Center), the linear probe,
    the kNN readout and the supervised baseline.  The encoder bounds its own eval working set: a
    :class:`~repro.nn.resnet.ResNetEncoder` runs the batch in blocks of
    at most :data:`repro.nn.resnet.EVAL_BLOCK` images, and a plugin
    encoder must bound its own.  An empty batch never reaches the
    encoder and returns an empty ``(0, feature_dim)`` array.  An encoder
    already in eval mode is not switched (no module-tree walk).
    """
    if images.ndim != 4:
        raise ValueError(f"expected NCHW batch, got shape {images.shape}")
    if images.shape[0] == 0:
        return np.zeros((0, getattr(encoder, "feature_dim", 1)))
    with _eval_mode(encoder), no_grad():
        return np.asarray(encoder(Tensor(images)).data)


@contextmanager
def _eval_mode(*modules: Module) -> Iterator[None]:
    """Run the block with ``modules`` in eval mode, switching (and
    afterwards restoring) only those that are training: a module kept in
    eval mode, like the serve server's, costs no module-tree walk."""
    switched = [module for module in modules if module.training]
    for module in switched:
        module.eval()
    try:
        yield
    finally:
        for module in switched:
            module.train()


class ContrastScorer:
    """Compute contrast scores S(x) for batches of images.

    Parameters
    ----------
    encoder:
        The base encoder ``f(·)`` mapping NCHW images to representation
        vectors.
    projector:
        The projection head ``g(·)``; its output is l2-normalized (if the
        head does not normalize, the scorer normalizes defensively).
    view_fn:
        The deterministic weak augmentation producing ``x+``.  Defaults
        to horizontal flip, the paper's choice.  Must be deterministic —
        pass a pure function of the image batch only.
    """

    def __init__(
        self,
        encoder: Module,
        projector: Module,
        view_fn: Callable[[np.ndarray], np.ndarray] = horizontal_flip,
    ) -> None:
        self.encoder = encoder
        self.projector = projector
        self.view_fn = view_fn

    # ------------------------------------------------------------------
    def project(self, images: np.ndarray) -> np.ndarray:
        """Normalized projections z = g(f(x))/||g(f(x))|| (no gradient).

        Computed at the active backend's ``scoring_dtype`` (float64 on
        the numpy reference, float32 end-to-end on the fused backend), in
        eval mode: a training module is switched for the forward and
        back, a module in eval mode is left as it is.
        """
        if images.ndim != 4:
            raise ValueError(f"expected NCHW batch, got shape {images.shape}")
        dtype = get_backend().scoring_dtype
        if images.shape[0] == 0:
            return np.zeros((0, 1), dtype=dtype)
        with _eval_mode(self.encoder, self.projector), no_grad():
            z = self.projector(self.encoder(Tensor(images))).data
        z = np.asarray(z, dtype=dtype)
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        return z / np.maximum(norms, 1e-12).astype(dtype, copy=False)

    def score(self, images: np.ndarray) -> np.ndarray:
        """Contrast scores S(x) in [0, 2] for every image in the batch.

        Vectorized: ``x`` and ``x+`` are stacked into one batch (legal
        because eval-mode batch norm makes every row independent of its
        batch-mates) and the similarity ``z^T z+`` is one stacked matmul
        over the projection matrix, so the cost is a batched GEMM
        pipeline instead of per-sample or per-view Python loops.  The
        encoder runs the stacked batch in blocks of at most
        :data:`repro.nn.resnet.EVAL_BLOCK` images (bounded peak memory,
        the same bytes), never per-sample.
        """
        n = images.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        stacked = np.concatenate([images, self.view_fn(images)], axis=0)
        z = self.project(stacked)
        # Row-wise dot products as one stacked (1, d) @ (d, 1) matmul; the
        # scorer fingerprint pins its bits.
        scores = 1.0 - np.matmul(z[:n, None, :], z[n:, :, None]).reshape(n)
        # Scores are float64 vectors regardless of the backend's scoring
        # dtype (the buffer stores float64); the cast is N scalars.
        return np.clip(scores, 0.0, 2.0).astype(np.float64, copy=False)

    def score_loop(self, images: np.ndarray) -> np.ndarray:
        """Reference scorer: one image (and one view) at a time.

        The executable spec of :meth:`score` — kept for regression tests
        and as the perf-suite baseline.  Numerically it matches the
        batched path to float tolerance (BLAS may reorder reductions
        across batch shapes), never use it on a hot path.
        """
        if images.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        scores = np.empty(images.shape[0], dtype=np.float64)
        for i in range(images.shape[0]):
            x = images[i : i + 1]
            z = self.project(x)
            z_flip = self.project(self.view_fn(x))
            scores[i] = 1.0 - float((z * z_flip).sum())
        return np.clip(scores, 0.0, 2.0)

    def features(self, images: np.ndarray) -> np.ndarray:
        """Encoder representations h = f(x) (see :func:`encoder_features`)."""
        return encoder_features(self.encoder, images)


def score_batches(scorer, batches: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Score several batches, fusing them into one forward when possible.

    ``scorer`` needs only ``score`` (a :class:`ContrastScorer`, a plugin
    or a test stub).  When every non-empty batch shares its image shape
    they are scored in one concatenated forward (one ``score`` call over
    the pooled batch, split back per input) — bigger GEMMs, fewer Python
    loops, and the same scores, since eval-mode scoring makes each row
    independent of its batch-mates.  Shape-mismatched batches fall back
    to one ``score`` call each; empty batches never reach ``score``.
    """
    sizes = [b.shape[0] for b in batches]
    nonempty = [b for b in batches if b.shape[0]]
    if not nonempty:
        return [np.zeros(0, dtype=np.float64) for _ in batches]
    if len({b.shape[1:] for b in nonempty}) == 1:
        pool = nonempty[0] if len(nonempty) == 1 else np.concatenate(nonempty, axis=0)
        scores = np.asarray(scorer.score(pool))
        out: List[np.ndarray] = []
        start = 0
        for size in sizes:
            out.append(scores[start : start + size])
            start += size
        return out
    return [
        scorer.score(b) if b.shape[0] else np.zeros(0, dtype=np.float64)
        for b in batches
    ]
