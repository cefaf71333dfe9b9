"""im2col / col2im transforms used by convolution and pooling.

``im2col`` unfolds sliding windows of an NCHW batch into a matrix so
convolution becomes a single GEMM; ``col2im`` folds gradients back,
accumulating where windows overlap.  Both are pure numpy functions with
no autograd involvement — :mod:`repro.nn.functional` wires them into the
graph.

Channels-last internals
-----------------------
Both take and return NCHW arrays whose column axis is ordered
(C, kh, kw), the order a ``(F, C, kh, kw)`` weight flattens to, but
work channels-last inside.  A numpy copy runs one inner loop per
contiguous run, and an NCHW window row is only ``kw`` elements long.
So :func:`im2col` repacks the input once into a zero-bordered NHWC
buffer, gathers ``kw*C``-element runs through the window view
:func:`im2col_nhwc` uses, and then transposes each output pixel's
(kh*kw, C) block into (C, kh, kw) order, a bounded chunk of images at a
time.  :func:`col2im` accumulates into an NHWC buffer one kernel offset
at a time, in (i, j) order, so every element receives the same float
additions in the same order as an NCHW fold.  Both results are
therefore byte-identical to the direct NCHW transforms, and the GEMMs
around them see the same operands.

Workspace reuse
---------------
The unfold allocates two large scratch arrays per call: the padded
NHWC input (role ``pad``) and the contiguous column matrix (role
``cols``).  The staging chunk of the transpose is small and always
fresh.  On the scoring/eval hot path — where every forward runs under
``no_grad`` and nothing retains the columns — those allocations
dominate small-model conv time, so :class:`Im2colWorkspace` caches them
keyed by (role, shape, dtype) and :func:`im2col` reuses them when a
workspace is passed.

Cache invariants (see DESIGN.md §7):

1. An array returned by a workspace-backed :func:`im2col` call is
   **owned by the workspace** and invalidated by the next call using
   the same workspace (each role is one flat arena).  Callers must
   fully consume it before triggering another unfold and must never
   store it.
2. Consequently a workspace may only be used for gradient-free
   forwards: autograd convolutions retain their columns until
   ``backward`` runs, so they always allocate fresh arrays.
   :func:`repro.nn.functional.conv2d` enforces this automatically.
3. ``col2im`` never uses the workspace: its output is returned as a
   *gradient* and may be retained by the autograd engine
   indefinitely.
4. Workspaces are not thread-safe; the module-level default is
   per-process (each parallel-sweep worker has its own).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "im2col_nhwc",
    "col2im",
    "Im2colWorkspace",
    "default_workspace",
]


class Im2colWorkspace:
    """Per-role scratch arenas for im2col (padded input, columns).

    ``get(role, shape, dtype)`` returns a view of the role's flat byte
    arena, grown (never shrunk) to the largest request seen, so memory
    stays bounded at one arena per role no matter how many distinct
    shapes pass through — the fused scoring path produces a different
    batch size almost every iteration, and caching per exact shape
    would leak a buffer pair per size for the process lifetime.  By
    invariant 1 (module docstring) only the most recent view per role
    is ever live, which is what makes a single arena sufficient.
    Contents are undefined on return — callers overwrite every element
    they read.  A "hit" is a request served without growing the arena.
    """

    def __init__(self) -> None:
        self._arenas: Dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, role: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        arena = self._arenas.get(role)
        if arena is None or arena.nbytes < nbytes:
            arena = np.empty(nbytes, dtype=np.uint8)
            self._arenas[role] = arena
            self.misses += 1
        else:
            self.hits += 1
        return arena[:nbytes].view(dtype).reshape(shape)

    def clear(self) -> None:
        """Drop every arena and reset the counters."""
        self._arenas.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters plus retained bytes (for the perf suite)."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "buffers": len(self._arenas),
            "bytes": int(sum(a.nbytes for a in self._arenas.values())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Im2colWorkspace({self.stats()})"


#: Process-wide workspace used by gradient-free convolutions.
_DEFAULT_WORKSPACE = Im2colWorkspace()


def default_workspace() -> Im2colWorkspace:
    """The process-wide workspace gradient-free convolutions reuse."""
    return _DEFAULT_WORKSPACE


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size is {out} for input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


#: Bytes of (kh, kw, C)-ordered columns :func:`im2col` stages per
#: transpose step (at least one image).  Enough images per chunk that
#: the Python loop costs little; few enough that the staging copy stays
#: in cache and adds almost nothing to peak memory.
_STAGE_BYTES = 1 << 18


def _windows_nhwc(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only (N, out_h, out_w, kh, kw, C) window view of an NHWC batch.

    The one window gather behind every unfold.  On a contiguous batch a
    window row (``kw`` pixels × C channels) is one contiguous run.
    """
    kh, kw = kernel
    sn, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(x.shape[0], out_h, out_w, kh, kw, x.shape[3]),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def _pad_nhwc(
    x: np.ndarray, padding: int, workspace: Optional[Im2colWorkspace]
) -> np.ndarray:
    """Copy an NHWC batch (any strides) into a zero-bordered contiguous
    buffer, the workspace's ``pad`` role when one is given."""
    n, h, w, c = x.shape
    p = padding
    shape = (n, h + 2 * p, w + 2 * p, c)
    if workspace is not None:
        padded = workspace.get("pad", shape, x.dtype)
    else:
        padded = np.empty(shape, dtype=x.dtype)
    if p > 0:
        # Zero only the border slabs: the interior is overwritten.
        padded[:, :p] = 0
        padded[:, -p:] = 0
        padded[:, p:-p, :p] = 0
        padded[:, p:-p, -p:] = 0
    padded[:, p : p + h, p : p + w] = x
    return padded


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    workspace: Optional[Im2colWorkspace] = None,
) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into (N, out_h, out_w, C*kh*kw).

    The last axis is ordered (C, kh, kw) — the same layout a weight
    tensor ``(F, C, kh, kw)`` flattens to, so the convolution GEMM is
    ``cols @ w.reshape(F, -1).T``.  The work runs channels-last (see the
    module docstring); the result is the plain NCHW gather, byte for
    byte.

    When ``workspace`` is given, the padded NHWC input and the returned
    column matrix are views of its per-role arenas instead of fresh
    allocations.  The return value is then owned by the workspace and
    invalidated by the next workspace-backed call — only pass a
    workspace when the result is fully consumed before the next unfold
    (the gradient-free convolution path; see the module docstring).
    """
    if x.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {x.shape}")
    kh, kw = kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    x = x.transpose(0, 2, 3, 1)
    if padding > 0 or kh * kw > 1:
        # Repack so each window row is one contiguous kw*C run.  An
        # unpadded 1x1 unfold reads one C-run per pixel either way, so it
        # gathers straight from the NCHW input.
        x = _pad_nhwc(x, padding, workspace)
    windows = _windows_nhwc(x, kernel, stride, out_h, out_w)
    shape = (n, out_h, out_w, c, kh, kw)
    if workspace is not None:
        cols = workspace.get("cols", shape, x.dtype)
    else:
        cols = np.empty(shape, dtype=x.dtype)
    if min(c, kh * kw) <= 1:
        # (kh, kw, C) and (C, kh, kw) are the same order: gather in place.
        np.copyto(cols.reshape(windows.shape), windows)
    else:
        # Gather contiguous runs into a small stage, then transpose each
        # pixel's (kh*kw, C) block into place, a chunk of images at a time.
        image_bytes = out_h * out_w * kh * kw * c * x.itemsize
        step = max(1, _STAGE_BYTES // image_bytes)
        stage = np.empty((min(step, n),) + windows.shape[1:], dtype=x.dtype)
        for start in range(0, n, step):
            block = stage[: min(step, n - start)]
            np.copyto(block, windows[start : start + step])
            np.copyto(cols[start : start + step], block.transpose(0, 1, 2, 5, 3, 4))
    return cols.reshape(n, out_h, out_w, c * kh * kw)


def im2col_nhwc(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    workspace: Optional[Im2colWorkspace] = None,
) -> np.ndarray:
    """Unfold an NHWC batch (N, H, W, C) into (N, out_h, out_w, kh*kw*C).

    The channels-last sibling of :func:`im2col`, used by the fused
    backend's inference path.  The last axis is ordered (kh, kw, C) —
    weights must be flattened ``w.transpose(0, 2, 3, 1).reshape(F, -1)``
    to match — so the gather is one copy of ``kw*C``-element runs with
    no transpose after it.

    The workspace contract is identical to :func:`im2col`: a
    workspace-backed result is owned by the workspace and invalidated
    by its next call.
    """
    if x.ndim != 4:
        raise ValueError(f"expected NHWC input, got shape {x.shape}")
    kh, kw = kernel
    n, h, w, c = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = _pad_nhwc(x, padding, workspace)
    windows = _windows_nhwc(x, kernel, stride, out_h, out_w)
    # Already output-ordered: (N, out_h, out_w, kh, kw, C) -> flatten tail.
    if workspace is not None:
        cols = workspace.get("cols", (n, out_h, out_w, kh, kw, c), x.dtype)
        np.copyto(cols, windows)
    else:
        cols = np.ascontiguousarray(windows)
    return cols.reshape(n, out_h, out_w, kh * kw * c)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold (N, out_h, out_w, C*kh*kw) columns back to a contiguous
    (N, C, H, W) array.

    Overlapping windows accumulate, which is exactly the gradient of
    :func:`im2col`.  The sums run on an NHWC buffer, one kernel offset at
    a time in (i, j) order, so each element gets the additions of an
    NCHW fold in the same order and the result is bit-identical to it.
    """
    kh, kw = kernel
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if cols.shape != (n, out_h, out_w, c * kh * kw):
        raise ValueError(
            f"cols shape {cols.shape} does not match expected "
            f"{(n, out_h, out_w, c * kh * kw)}"
        )
    p = padding
    padded = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw)
    # Accumulate each kernel offset with one strided slice addition.
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, i:i_end:stride, j:j_end:stride] += cols6[..., i, j]
    return np.ascontiguousarray(padded[:, p : p + h, p : p + w].transpose(0, 3, 1, 2))
