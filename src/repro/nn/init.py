"""Weight-initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so model
construction is reproducible under :class:`repro.utils.RngRegistry`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["kaiming_normal", "kaiming_uniform", "zeros", "ones"]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Fan-in / fan-out for linear (out, in) or conv (out, in, kh, kw) weights."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_c, in_c, kh, kw = shape
        receptive = kh * kw
        return in_c * receptive, out_c * receptive
    raise ValueError(f"unsupported weight shape for fan computation: {shape}")


def kaiming_normal(
    shape: Tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)
) -> np.ndarray:
    """He-normal initialization (appropriate before ReLU)."""
    fan_in, _ = _fan_in_out(shape)
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def kaiming_uniform(
    shape: Tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)
) -> np.ndarray:
    """He-uniform initialization."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero float32 array."""
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-one float32 array."""
    return np.ones(shape, dtype=np.float32)
