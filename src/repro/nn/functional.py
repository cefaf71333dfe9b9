"""Differentiable neural-network operations on :class:`~repro.nn.tensor.Tensor`.

Everything here builds on the autograd closures of
:mod:`repro.nn.tensor` and computes with numpy directly, except where
the active :class:`~repro.nn.backend.base.ArrayBackend` may specialize
the work: convolution runs the backend's im2col gather/scatter and
GEMM (a gradient-free call unfolds into the backend's workspace), and
a gradient-free :func:`add_relu` calls ``add_relu_infer``.  Eval
no-grad encoder forwards skip these modules altogether: they run the
backend's channels-last chain with the affine of
:func:`bn_eval_affine` (see :meth:`repro.nn.resnet.ResNetEncoder.forward`).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn.backend.base import get_backend
from repro.nn.im2col import conv_output_size
from repro.nn.tensor import Tensor, _make, is_grad_enabled

__all__ = [
    "relu",
    "conv2d",
    "conv_bn_relu",
    "add_relu",
    "bn_eval_affine",
    "global_avg_pool2d",
    "linear",
    "log_softmax",
    "l2_normalize",
]


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    return x.relu()


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an NCHW batch.

    Parameters
    ----------
    x: ``(N, C_in, H, W)`` input.
    weight: ``(C_out, C_in, kh, kw)`` filters.
    bias: optional ``(C_out,)``.

    Every call runs one forward: unfold, GEMM, bias, NCHW repack.  A
    gradient-free call (``no_grad`` scoring/eval, frozen inputs) keeps
    no columns, so it unfolds with ``grad_free=True`` — the backend may
    serve the columns from a scratch workspace — and returns before it
    builds a backward closure; its output is a fresh, caller-owned
    array all the same.  Autograd forwards own their columns (the
    backward closure reads them for the weight gradient), so they
    unfold with ``grad_free=False``.  The closure keeps the columns but
    only ``x``'s shape and ``requires_grad`` flag, never ``x``.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D weight, got shape {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {weight.shape[1]}"
        )
    n, _, h, w = x.shape
    c_out, c_in, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    parents = (x, weight) if bias is None else (x, weight, bias)
    needs_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
    backend = get_backend()
    cols = backend.im2col(x.data, (kh, kw), stride, padding, grad_free=not needs_grad)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C*kh*kw)
    out = backend.matmul(cols, w_mat.T)  # (N, oh, ow, C_out)
    if bias is not None:
        out = out + bias.data
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    if not needs_grad:
        return Tensor(out)
    x_shape, x_requires_grad = x.shape, x.requires_grad

    def backward(g: np.ndarray):
        # g: (N, C_out, oh, ow) -> (N, oh, ow, C_out)
        g_nhwc = g.transpose(0, 2, 3, 1)
        gx = gw = gb = None
        if x_requires_grad:
            gcols = backend.matmul(g_nhwc, w_mat)  # (N, oh, ow, C*kh*kw)
            gx = backend.col2im(gcols, x_shape, (kh, kw), stride, padding)
        if weight.requires_grad:
            # One 2-D GEMM, (N*oh*ow, C_out)ᵀ @ (N*oh*ow, K): this operand
            # layout fixes the gradient's bits, which the fingerprints pin.
            gw_mat = g_nhwc.reshape(-1, c_out).T @ cols.reshape(-1, cols.shape[-1])
            gw = gw_mat.reshape(weight.shape)
        if bias is not None and bias.requires_grad:
            gb = g_nhwc.sum(axis=(0, 1, 2))
        if bias is None:
            return (gx, gw)
        return (gx, gw, gb)

    return _make(out, parents, backward)


def conv_bn_relu(x: Tensor, conv, bn, relu: bool = True) -> Tensor:
    """Convolution → batch norm (→ ReLU): ``bn(conv(x))`` (+ ``relu``).

    ``conv`` and ``bn`` are :class:`~repro.nn.layers.Conv2d` /
    :class:`~repro.nn.layers.BatchNorm2d` modules (duck-typed).  This is
    the module path, identical on every backend; eval no-grad encoder
    forwards take the backend's channels-last chain instead.
    """
    out = bn(conv(x))
    return out.relu() if relu else out


def bn_eval_affine(bn) -> Tuple[np.ndarray, np.ndarray]:
    """The per-channel affine eval-mode batch norm reduces to.

    Returns ``(scale, shift)`` with ``inv_std = 1 / sqrt(var + eps)``,
    ``scale = gamma * inv_std`` and ``shift = beta - gamma * mean *
    inv_std``.  ``BatchNorm2d``'s eval forward (``x * scale + shift``)
    and the channels-last chains take it from here, so the reference
    chain matches the module path bit for bit; the fused backend folds
    the same vectors into the preceding convolution.
    """
    mean = bn._buffers["running_mean"]
    inv_std = 1.0 / np.sqrt(bn._buffers["running_var"] + bn.eps)
    gamma = bn.gamma.data
    return gamma * inv_std, bn.beta.data - gamma * mean * inv_std


def add_relu(a: Tensor, b: Tensor) -> Tensor:
    """``relu(a + b)`` — the residual-join epilogue.

    Gradient-free calls dispatch to the backend (which may run the
    rectification in place on the sum); autograd calls compose the
    reference ``(a + b).relu()``.
    """
    if is_grad_enabled() and (a.requires_grad or b.requires_grad):
        return (a + b).relu()
    return Tensor(get_backend().add_relu_infer(a.data, b.data))


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax along ``axis`` (stable fused implementation)."""
    a = x
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    exp = np.exp(shifted)
    total = exp.sum(axis=axis, keepdims=True)
    data = shifted - np.log(total)
    softmax_vals = exp / total

    def backward(g: np.ndarray):
        return (g - softmax_vals * g.sum(axis=axis, keepdims=True),)

    return _make(data, (a,), backward)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows of ``x`` onto the unit sphere: ``x / ||x||_2``.

    This is the normalization the paper applies to projection-head
    outputs (Eq. 3) so the dot product ``z_i^T z_i+`` lies in [-1, 1].
    """
    a = x
    norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    norm = np.maximum(norm, eps)
    data = a.data / norm

    def backward(g: np.ndarray):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return ((g - data * dot) / norm,)

    return _make(data, (a,), backward)
