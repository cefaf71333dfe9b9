"""The optimizer: Adam with L2 weight decay, the paper's setup (Adam +
weight decay 1e-4), and the paper's sqrt learning-rate scaling rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.layers import Parameter

__all__ = ["Optimizer", "Adam", "sqrt_batch_lr_scale"]


class Optimizer:
    """Base optimizer over a parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        params = list(params)
        if not params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam with L2 weight decay added to the gradient (paper setup)."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Moment estimates and step count, keyed by parameter order.

        Parameters that have not yet received a gradient are stored as
        zero moments, which is exactly what :meth:`step` would lazily
        initialize them to.
        """
        out: Dict[str, np.ndarray] = {"t": np.array(self._t, dtype=np.int64)}
        for i, p in enumerate(self.params):
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            out[f"m{i}"] = (np.zeros_like(p.data) if m is None else m).copy()
            out[f"v{i}"] = (np.zeros_like(p.data) if v is None else v).copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore moments written by :meth:`state_dict` (same param order)."""
        self._t = int(state["t"])
        for i, p in enumerate(self.params):
            m = np.asarray(state[f"m{i}"])
            v = np.asarray(state[f"v{i}"])
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ValueError(
                    f"optimizer state shape mismatch at param {i}: "
                    f"{m.shape}/{v.shape} vs {p.data.shape}"
                )
            self._m[id(p)] = m.copy()
            self._v[id(p)] = v.copy()


def sqrt_batch_lr_scale(base_lr: float, batch_size: int, base_batch: int = 256) -> float:
    """Scale a learning rate with sqrt(batch size), the paper's Table II rule.

    The paper scales lr to {1, 3, 5, 10}e-5 for buffers {8, 32, 128, 256},
    "roughly following lr ∝ sqrt(batch size)"; this helper implements the
    exact sqrt rule anchored at ``base_batch``.
    """
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    return base_lr * np.sqrt(batch_size / base_batch)
