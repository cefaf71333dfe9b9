"""The :class:`ArrayBackend` protocol and the active-backend state.

Every numeric operation of the nn stack — tensor arithmetic,
convolution unfolds, softmax reductions, loss precision — routes
through one *array backend*.  A backend is a strategy object: storage
is always a ``numpy.ndarray`` (that is the substrate contract the
autograd engine relies on), but the backend decides **how** compute
runs — which precision gradient-free forwards use, whether scratch
buffers are reused, and whether adjacent inference ops are fused.
Swapping the backend never changes *what* is computed, only how fast
and at which precision.

Protocol surface (see the method groups on :class:`ArrayBackend`):

* **creation** — ``asarray``, ``empty``, ``zeros``, ``ones``,
  ``zeros_like``;
* **elementwise** — arithmetic, transcendentals, ``maximum`` /
  ``where`` / ``clip`` / ``relu``;
* **reduction** — ``sum`` / ``mean`` / ``max``;
* **linear algebra** — ``matmul`` (with optional ``out=``);
* **im2col gather/scatter** — ``im2col`` / ``col2im``, with a
  ``grad_free`` flag that lets the backend substitute workspace-backed
  scratch for gradient-free forwards;
* **inference fast paths** — ``conv2d_infer`` (a gradient-free
  ``F.conv2d``) and the channels-last chain ``to_nhwc`` /
  ``conv_bn_nhwc`` / ``add_relu_infer`` / ``pool_mean_nhwc`` every
  eval no-grad encoder forward runs through;
* **precision policy** — ``compute_dtype`` / ``scoring_dtype`` /
  ``loss_reduction_dtype`` (see the attribute docs; this is the
  explicit home of every "which float width?" decision that used to be
  hard-coded across the nn modules).

Two invariants every backend must keep (enforced by the parity tests in
``tests/nn/test_backend.py`` and ``tests/property/``):

1. **Autograd math is backend-independent.**  Operations recorded on
   the autograd graph (and every backward closure) must be bitwise
   reproducible across backends — training trajectories are part of the
   reproduction contract.  Backends therefore only specialize the
   *gradient-free* paths (``*_infer``, the ``*_nhwc`` chain,
   ``grad_free=True`` unfolds, scoring precision); the graph-building
   ops in the base class are the reference semantics and subclasses
   should not change their results.
2. **Returned arrays are caller-owned.**  A backend may reuse internal
   scratch arenas between calls, but any array it *returns* must remain
   valid until the caller drops it — never a view of an arena a later
   call overwrites.

Active-backend state
--------------------
The process has one active backend, resolved lazily from the
``REPRO_BACKEND`` environment variable (default ``"numpy"``) through
:data:`repro.registry.BACKENDS`.  :func:`set_backend` replaces the
process default; :func:`use_backend` overrides it for a ``with`` block
(the same module-level-switch pattern as
:class:`repro.nn.tensor.no_grad`).  Like the im2col workspace, the
state is per-process and not thread-safe; parallel-sweep workers each
resolve their own.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ArrayBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "default_backend_name",
]


def _rectify(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ReLU of ``x`` into ``out`` (may be ``x``), bitwise ``where(x > 0,
    x, 0)``: ``fmax`` maps NaN to 0 and may keep -0.0, and adding +0.0
    turns that into +0.0 and leaves every other value unchanged."""
    np.fmax(x, 0.0, out=out)
    return np.add(out, 0.0, out=out)


class ArrayBackend:
    """Reference implementation and protocol of the execution layer.

    The base class *is* the reference numpy semantics: every method is
    implemented with plain ``numpy`` calls, bit-compatible with the
    pre-backend code.  Subclasses override the subset they accelerate
    (see :class:`repro.nn.backend.fused.FusedBackend`).
    """

    #: Registry name of the backend (subclasses set it).
    name: str = "base"

    #: Parameter / activation dtype of the nn stack.  float32 matches
    #: the paper's on-device regime and every initializer in
    #: :mod:`repro.nn.init`.
    compute_dtype = np.float32

    #: Dtype of gradient-free *scoring* forwards and the projection
    #: normalization in :class:`repro.core.scoring.ContrastScorer`.
    #: The reference backend keeps the historical float64 (scores feed
    #: top-k selection, and float64 makes the reference maximally
    #: stable); the fused backend runs float32 end-to-end — contrast
    #: scores live in [0, 2] with meaningful gaps around 1e-3, five
    #: orders of magnitude above float32 resolution at that scale.
    scoring_dtype = np.float64

    #: Dtype of per-sample loss reductions (NT-Xent ``per_sample``,
    #: cosine similarity).  float64 on every backend: the
    #: log-sum-exp runs over 2N terms spanning the e^{±1/τ} dynamic
    #: range, where float32 cancellation would bias the small
    #: per-sample losses Selective-BP ranks by — and the similarity
    #: matrix is tiny next to the encoder forwards, so the wide
    #: accumulation is effectively free.
    loss_reduction_dtype = np.float64

    # -- creation -------------------------------------------------------
    def asarray(self, value: Any, dtype: Optional[Any] = None) -> np.ndarray:
        return np.asarray(value, dtype=dtype)

    def empty(self, shape: Tuple[int, ...], dtype: Optional[Any] = None) -> np.ndarray:
        return np.empty(shape, dtype=self.compute_dtype if dtype is None else dtype)

    def zeros(self, shape: Tuple[int, ...], dtype: Optional[Any] = None) -> np.ndarray:
        return np.zeros(shape, dtype=self.compute_dtype if dtype is None else dtype)

    def ones(self, shape: Tuple[int, ...], dtype: Optional[Any] = None) -> np.ndarray:
        return np.ones(shape, dtype=self.compute_dtype if dtype is None else dtype)

    def zeros_like(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    # -- elementwise ----------------------------------------------------
    def add(self, a, b, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.add(a, b, out=out) if out is not None else a + b

    def subtract(self, a, b) -> np.ndarray:
        return a - b

    def multiply(self, a, b) -> np.ndarray:
        return a * b

    def divide(self, a, b) -> np.ndarray:
        return a / b

    def negative(self, x: np.ndarray) -> np.ndarray:
        return -x

    def power(self, x: np.ndarray, exponent: float) -> np.ndarray:
        return x**exponent

    def exp(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)

    def log(self, x: np.ndarray) -> np.ndarray:
        return np.log(x)

    def sqrt(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(x)

    def tanh(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def sign(self, x: np.ndarray) -> np.ndarray:
        return np.sign(x)

    def absolute(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x)

    def maximum(self, a, b, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.maximum(a, b, out=out) if out is not None else np.maximum(a, b)

    def where(self, cond, a, b) -> np.ndarray:
        return np.where(cond, a, b)

    def clip(self, x: np.ndarray, low: float, high: float) -> np.ndarray:
        return np.clip(x, low, high)

    def relu(self, x: np.ndarray) -> np.ndarray:
        """Reference ReLU: bitwise ``where(x > 0, x, 0)`` (see :func:`_rectify`)."""
        return _rectify(x, np.empty_like(x))

    # -- reductions -----------------------------------------------------
    def sum(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.sum(axis=axis, keepdims=keepdims)

    def mean(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.mean(axis=axis, keepdims=keepdims)

    def max(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.max(axis=axis, keepdims=keepdims)

    # -- linear algebra -------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.matmul(a, b, out=out) if out is not None else a @ b

    # -- im2col gather / scatter ----------------------------------------
    def im2col(
        self,
        x: np.ndarray,
        kernel: Tuple[int, int],
        stride: int,
        padding: int,
        grad_free: bool = False,
    ) -> np.ndarray:
        """Unfold an NCHW batch into a GEMM-ready column matrix.

        ``grad_free=True`` tells the backend nothing will retain the
        columns past the next unfold, so it may serve them from a
        scratch workspace (see :mod:`repro.nn.im2col` invariants); the
        base class honors that with the process-wide default workspace.
        Autograd callers must pass ``grad_free=False`` — their backward
        closures retain the columns.
        """
        from repro.nn.im2col import default_workspace, im2col

        workspace = default_workspace() if grad_free else None
        return im2col(x, kernel, stride, padding, workspace=workspace)

    def col2im(
        self,
        cols: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: Tuple[int, int],
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Fold columns back to NCHW, accumulating overlaps (im2col's
        gradient).  Never workspace-backed: the result becomes a
        gradient the autograd engine may retain indefinitely."""
        from repro.nn.im2col import col2im

        return col2im(cols, input_shape, kernel, stride, padding)

    # -- inference fast paths -------------------------------------------
    def conv2d_infer(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Gradient-free 2-D convolution forward (NCHW in, NCHW out).

        The reference path: workspace-backed unfold, one GEMM, NCHW
        repack.  Bit-compatible with the autograd forward.
        """
        c_out = weight.shape[0]
        kh, kw = weight.shape[2], weight.shape[3]
        cols = self.im2col(x, (kh, kw), stride, padding, grad_free=True)
        w_mat = weight.reshape(c_out, -1)
        out = cols @ w_mat.T  # (N, oh, ow, C_out)
        if bias is not None:
            out = out + bias
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    def add_relu_infer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gradient-free ``relu(a + b)`` (the residual-join epilogue)."""
        out = a + b
        return _rectify(out, out)

    # -- NHWC inference chain --------------------------------------------
    # ResNetEncoder.forward runs every eval no-grad forward through these
    # on raw channels-last arrays: one repack at entry, no per-layer
    # layout round-trip, a pooled (N, C) exit.  The reference chain is
    # bitwise equal to the module path: the same unfold, the same
    # stacked GEMM, the same elementwise ops in the same order; it only
    # drops the layout copies between layers.
    def to_nhwc(self, x: np.ndarray) -> np.ndarray:
        """Repack an NCHW batch as contiguous NHWC (chain entry)."""
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1))

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
        """conv(→BN)(→ReLU) on an NHWC batch, returning NHWC.

        ``weight`` stays in the canonical (C_out, C_in, kh, kw) layout;
        ``scale``/``shift`` are :func:`repro.nn.functional.bn_eval_affine`
        of the layer's batch norm, or None for a plain convolution.

        The reference unfolds an NCHW view of ``x`` (:meth:`im2col`
        transposes it straight back, so the padded buffer and columns
        are those of :meth:`conv2d_infer`) and issues the same stacked
        GEMM, whose (N, oh, ow, C_out) result already is NHWC.  Bias,
        BN and ReLU then run in place on that fresh output, each
        element rounded as in ``BatchNorm2d``'s ``x * scale + shift``.
        """
        c_out, _, kh, kw = weight.shape
        cols = self.im2col(
            x.transpose(0, 3, 1, 2), (kh, kw), stride, padding, grad_free=True
        )
        out = cols @ weight.reshape(c_out, -1).T
        if bias is not None:
            out += bias
        if scale is not None:
            out *= scale
            out += shift
        return _rectify(out, out) if relu else out

    def pool_mean_nhwc(self, x: np.ndarray) -> np.ndarray:
        """Global average pool (N, H, W, C) -> (N, C) (chain exit).

        Averages an NCHW copy over its contiguous spatial block: an NHWC
        ``mean(axis=(1, 2))`` sums in another order and moves bits.
        """
        return np.ascontiguousarray(x.transpose(0, 3, 1, 2)).mean(axis=(2, 3))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Active-backend state (module-level, per-process)
# ----------------------------------------------------------------------
_ACTIVE: Optional[ArrayBackend] = None


def default_backend_name() -> str:
    """Backend the process starts on: ``REPRO_BACKEND`` env, else numpy."""
    return os.environ.get("REPRO_BACKEND", "numpy")


def _resolve(backend: Union[str, ArrayBackend]) -> ArrayBackend:
    if isinstance(backend, ArrayBackend):
        return backend
    from repro.registry import BACKENDS

    return BACKENDS.create(backend)


def get_backend() -> ArrayBackend:
    """The active backend, resolving the process default on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _resolve(default_backend_name())
    return _ACTIVE


def set_backend(backend: Union[str, ArrayBackend, None]) -> ArrayBackend:
    """Replace the process-default backend (name, instance, or None).

    ``None`` re-resolves :func:`default_backend_name` — the way to
    honor a changed ``REPRO_BACKEND`` after import.  Returns the new
    active backend.
    """
    global _ACTIVE
    _ACTIVE = None if backend is None else _resolve(backend)
    return get_backend()


class use_backend:
    """Context manager running a block on another backend.

    ``use_backend(None)`` is a no-op (keeps the active backend) so
    callers can thread an optional selection without branching::

        with use_backend(config.backend):   # None = inherit
            session_body()

    Accepts a registry name (alias-resolved, "did you mean" errors on
    unknowns) or an :class:`ArrayBackend` instance.  Re-entrant but,
    like the rest of the state, not thread-safe.
    """

    def __init__(self, backend: Union[str, ArrayBackend, None]) -> None:
        self._target = backend
        self._prev: Optional[ArrayBackend] = None

    def __enter__(self) -> ArrayBackend:
        global _ACTIVE
        self._prev = get_backend()
        if self._target is not None:
            _ACTIVE = _resolve(self._target)
        return get_backend()

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
