"""Shared test utilities: finite-difference gradient checking and
malformed wire-array specs."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import Tensor


def numeric_grad(
    fn: Callable[[], Tensor], wrt: Tensor, eps: float = 1e-5
) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued ``fn`` w.r.t. ``wrt``.

    ``fn`` must recompute the forward pass from ``wrt.data`` each call.
    """
    base = wrt.data
    grad = np.zeros_like(base, dtype=np.float64)
    flat = base.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn().data.sum())
        flat[i] = original - eps
        minus = float(fn().data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def assert_grad_close(
    fn: Callable[[], Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-6,
    rtol: float = 1e-4,
    eps: float = 1e-5,
) -> None:
    """Check autograd gradients of scalar ``fn`` against finite differences.

    ``inputs`` are the leaf tensors (must be float64 with requires_grad)
    whose gradients are verified.
    """
    for t in inputs:
        assert t.requires_grad, "gradcheck inputs must require grad"
        assert t.data.dtype == np.float64, "use float64 for gradcheck"
        t.zero_grad()
    out = fn()
    total = out.sum() if out.size > 1 else out
    total.backward()
    for idx, t in enumerate(inputs):
        expected = numeric_grad(fn, t, eps=eps)
        actual = t.grad
        assert actual is not None, f"input {idx} received no gradient"
        np.testing.assert_allclose(
            actual,
            expected,
            atol=atol,
            rtol=rtol,
            err_msg=f"gradient mismatch for input {idx}",
        )


def leaf(rng: np.random.Generator, *shape: int, scale: float = 1.0) -> Tensor:
    """A float64 leaf tensor with requires_grad for gradcheck tests."""
    return Tensor(
        rng.normal(0.0, scale, size=shape).astype(np.float64), requires_grad=True
    )


#: Array specs ``repro.experiments.wire.decode_array`` must reject with a
#: ``WireProtocolError``, keyed by defect (serve TCP requests and wire
#: payloads are both checked against these).
MALFORMED_ARRAY_SPECS = {
    "not-a-dict": 42,
    "missing-key": {"dtype": "<f4", "shape": [2]},
    "shape-not-a-list": {"dtype": "<f4", "shape": 2, "data": "AAAAAAAAAAA="},
    "negative-dim": {"dtype": "<f4", "shape": [-1], "data": "AAAAAAAAAAA="},
    "non-integer-dim": {"dtype": "<f4", "shape": [2.0], "data": "AAAAAAAAAAA="},
    "unknown-dtype": {"dtype": "<q9", "shape": [2], "data": "AAAAAAAAAAA="},
    "object-dtype": {"dtype": "|O", "shape": [1], "data": "AAAAAAAAAAA="},
    "not-base64": {"dtype": "<f4", "shape": [1], "data": "AAAAA"},
    "truncated": {"dtype": "<f4", "shape": [3], "data": "AAAAAAAAAAA="},
    # zero elements, but numpy refuses the shape: its other dimension
    # overflows the index type
    "overflowing-shape": {"dtype": "<f4", "shape": [0, 2**62], "data": ""},
}
