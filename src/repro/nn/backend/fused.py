"""The ``fused`` optimized backend.

Same math as the :class:`~repro.nn.backend.numpy_backend.NumpyBackend`
reference, executed the way an on-device inference engine would run it.
Everything below applies to the channels-last gradient-free chain
(:meth:`~repro.nn.backend.base.ArrayBackend.conv_bn_nhwc` and friends)
that every eval no-grad encoder forward runs through:

* **conv → BN → ReLU fusion** — eval-mode batch norm is a per-channel
  affine, so it folds into the convolution weights once per call
  (``w' = w * scale``, a pass over the tiny filter tensor) and the GEMM
  emits normalized activations directly; the bias add and optional
  ReLU run in place on the GEMM output.
* **(kh, kw, C) columns** — the unfold gathers ``kw*C``-element runs
  with no transpose after them (:func:`~repro.nn.im2col.im2col_nhwc`),
  and the weights are reordered to match.
* **2x2 output tiles for narrow convolutions** — a 3x3 stride-1
  convolution with at most :data:`TILE_MAX_C_OUT` output channels on
  an even map computes one 2x2 output tile per GEMM row (see
  :meth:`FusedBackend.conv_bn_nhwc`).  A 12-channel GEMM is too narrow
  to run BLAS near its peak; four times the columns are not.  The tiles
  hold the perf suite's fused-scoring floor at batch 64; at the serve
  benchmark's batches of 8 they show no end-to-end gain (DESIGN.md §8).
* **Buffer reuse** — the unfold scratch (padded input, columns) and the
  tiled GEMM output land in a private :class:`~repro.nn.im2col.
  Im2colWorkspace`, so a steady-state chain allocates one array per
  layer: the NHWC output it returns.  Returned arrays are never arena
  views — the caller-ownership invariant of the protocol holds.
* **float32 end-to-end** — gradient-free scoring forwards stay in
  float32 instead of upcasting projections to float64
  (:attr:`scoring_dtype`); contrast scores have ~1e-3 gaps on a [0, 2]
  scale, far above float32 resolution, and the final score vector is
  still returned as float64 by the scorer for buffer compatibility.
  Per-sample *loss* reductions keep float64 on every backend (see
  :mod:`repro.nn.losses`).

Fusion only ever applies to gradient-free forwards (the scoring /
probe-evaluation hot path); autograd training math calls numpy or
the reference backend's ``matmul``, ``col2im`` and workspace-free
unfolds, so training trajectories are bitwise identical across
backends.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.backend.numpy_backend import NumpyBackend
from repro.nn.im2col import Im2colWorkspace, im2col, im2col_nhwc
from repro.registry import register_backend

__all__ = ["FusedBackend", "TILE_MAX_C_OUT"]

#: Widest convolution (output channels) the 2x2-tiled path serves.  At
#: 128 images a 3->12 convolution at 12 px went 1.51 -> 1.12 ms and a
#: 12->12 one 3.24 -> 2.29 ms; 24->24 at 6 px was neutral and 48->48
#: slower, because a wide GEMM already runs near BLAS peak and tiles
#: cost 16/9 of the multiply-adds (DESIGN.md §8).
TILE_MAX_C_OUT = 16


@register_backend("fused", label="Fused inference", aliases=("fast",))
class FusedBackend(NumpyBackend):
    """conv→BN→ReLU fusion + arena buffer reuse + float32 inference."""

    name = "fused"
    scoring_dtype = np.float32

    def __init__(self) -> None:
        # Private workspace (separate from the reference backend's
        # process-wide one): the fused path adds a "gemm" role, and
        # sharing arenas across backends would entangle their
        # invalidation windows.
        self._workspace = Im2colWorkspace()

    @property
    def workspace(self) -> Im2colWorkspace:
        """The private scratch workspace (stats/clear for benchmarks)."""
        return self._workspace

    # -- elementwise -----------------------------------------------------
    def relu(self, x: np.ndarray) -> np.ndarray:
        # Single-pass maximum instead of the reference's two passes.
        # Only zero signs and NaN (kept here, zeroed there) can differ;
        # the fused contract is a tolerance on finite inputs.
        return np.maximum(x, 0.0)

    # -- im2col ----------------------------------------------------------
    def im2col(
        self,
        x: np.ndarray,
        kernel: Tuple[int, int],
        stride: int,
        padding: int,
        grad_free: bool = False,
    ) -> np.ndarray:
        workspace = self._workspace if grad_free else None
        return im2col(x, kernel, stride, padding, workspace=workspace)

    # -- NHWC inference chain -------------------------------------------
    def add_relu_infer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a + b
        return np.maximum(out, 0.0, out=out)

    def conv_bn_nhwc(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
        scale: Optional[np.ndarray],
        shift: Optional[np.ndarray],
        relu: bool,
    ) -> np.ndarray:
        """Channels-last fused conv: contiguous unfold, one GEMM, in-place
        epilogues.

        The untiled path GEMMs straight into the caller-owned NHWC
        output.  A 3x3 stride-1 padding-1 convolution with at most
        :data:`TILE_MAX_C_OUT` output channels on an even map instead
        computes one 2x2 output tile per GEMM row: it unfolds 4x4
        patches at stride 2 (the tile's receptive field), multiplies by
        a ``(4*C_out, 16*C_in)`` matrix holding the folded kernel at
        each of the four tile offsets (zeros elsewhere), and copies the
        tiles into place.  Every term it adds beyond the 3x3 window is
        an exact zero for finite inputs; a non-finite pixel can reach
        the other outputs of its tile, never another image.
        """
        c_out, _, kh, kw = weight.shape
        n, h, w, _ = x.shape
        # float32 for float32 inputs; float64 inputs (reference tests,
        # finite differences) keep their width.
        dtype = np.promote_types(x.dtype, np.float32)

        # (C_out, C_in, kh, kw) -> (C_out, kh, kw, C_in), matching the
        # (kh, kw, C) order of the NHWC columns; BN folds in here.
        w_k = weight.transpose(0, 2, 3, 1)
        if scale is not None:
            w_k = w_k * scale[:, None, None, None]
            b_vec = shift if bias is None else bias * scale + shift
        else:
            b_vec = bias

        tiled = (
            (kh, kw, stride, padding) == (3, 3, 1, 1)
            and c_out <= TILE_MAX_C_OUT
            and h % 2 == 0
            and w % 2 == 0
        )
        if not tiled:
            cols = im2col_nhwc(x, (kh, kw), stride, padding, workspace=self._workspace)
            out = np.empty(cols.shape[:3] + (c_out,), dtype=dtype)
            _gemm_epilogue(cols, w_k.reshape(c_out, -1), b_vec, relu, out)
            return out

        w_tile = np.zeros((2, 2, c_out, 4, 4, w_k.shape[3]), dtype=dtype)
        for dy in (0, 1):
            for dx in (0, 1):
                w_tile[dy, dx, :, dy : dy + 3, dx : dx + 3] = w_k
        # A 4x4 stride-2 unfold with padding 1 yields (N, H/2, W/2) tiles.
        cols = im2col_nhwc(x, (4, 4), 2, 1, workspace=self._workspace)
        gemm = self._workspace.get("gemm", cols.shape[:3] + (4 * c_out,), dtype)
        _gemm_epilogue(
            cols,
            w_tile.reshape(4 * c_out, -1),
            None if b_vec is None else np.tile(b_vec, 4),
            relu,
            gemm,
        )
        # (N, H/2, W/2, dy, dx, C) tiles -> the caller-owned NHWC output.
        out = np.empty((n, h, w, c_out), dtype=dtype)
        np.copyto(
            out.reshape(n, h // 2, 2, w // 2, 2, c_out),
            gemm.reshape(n, h // 2, w // 2, 2, 2, c_out).transpose(0, 1, 3, 2, 4, 5),
        )
        return out

    def pool_mean_nhwc(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(1, 2))


def _gemm_epilogue(
    cols: np.ndarray,
    w_mat: np.ndarray,
    b_vec: Optional[np.ndarray],
    relu: bool,
    out: np.ndarray,
) -> None:
    """``out = cols @ w_mat.T`` (+ ``b_vec``) (→ ReLU), every pass in
    place on ``out``, whose last axis is ``w_mat``'s rows."""
    dtype = out.dtype
    rows = out.reshape(-1, w_mat.shape[0])
    np.matmul(
        cols.reshape(rows.shape[0], -1).astype(dtype, copy=False),
        np.ascontiguousarray(w_mat, dtype=dtype).T,
        out=rows,
    )
    if b_vec is not None:
        out += b_vec.astype(dtype, copy=False)
    if relu:
        np.maximum(out, 0.0, out=out)
