"""Learning-rate schedules.

The paper trains with a fixed Adam learning rate; these schedulers are
library extensions for longer on-device runs (cosine decay is the
de-facto standard for SimCLR-style training and is used by the
scaled-up benchmark configurations via ``REPRO_BENCH_SCALE``).

A scheduler wraps an optimizer and mutates its ``lr`` on ``step()``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.nn.optim import Optimizer

__all__ = ["LRScheduler", "ConstantLR", "StepDecayLR", "CosineDecayLR", "WarmupCosineLR"]


class LRScheduler:
    """Base class: tracks the step count and the optimizer's base lr."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_count = 0

    def get_lr(self, step: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> float:
        """Advance one step; sets and returns the new learning rate."""
        lr = self.get_lr(self.step_count)
        if lr <= 0:
            raise ValueError(f"scheduler produced non-positive lr {lr}")
        self.optimizer.lr = lr
        self.step_count += 1
        return lr


class ConstantLR(LRScheduler):
    """No-op schedule (explicit is better than implicit)."""

    def get_lr(self, step: int) -> float:
        return self.base_lr


class StepDecayLR(LRScheduler):
    """Multiply the lr by ``gamma`` every ``period`` steps."""

    def __init__(self, optimizer: Optimizer, period: int, gamma: float = 0.1) -> None:
        super().__init__(optimizer)
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.period = period
        self.gamma = gamma

    def get_lr(self, step: int) -> float:
        return self.base_lr * (self.gamma ** (step // self.period))


class CosineDecayLR(LRScheduler):
    """Cosine annealing from the base lr to ``min_lr`` over ``total_steps``."""

    def __init__(
        self, optimizer: Optimizer, total_steps: int, min_lr: float = 1e-6
    ) -> None:
        super().__init__(optimizer)
        if total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {total_steps}")
        if min_lr <= 0 or min_lr > self.base_lr:
            raise ValueError(
                f"min_lr must be in (0, base_lr={self.base_lr}], got {min_lr}"
            )
        self.total_steps = total_steps
        self.min_lr = min_lr

    def get_lr(self, step: int) -> float:
        progress = min(step, self.total_steps) / self.total_steps
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine


class WarmupCosineLR(LRScheduler):
    """Linear warmup from near zero, then cosine decay to ``min_lr``."""

    def __init__(
        self,
        optimizer: Optimizer,
        total_steps: int,
        warmup_steps: int,
        min_lr: float = 1e-6,
    ) -> None:
        super().__init__(optimizer)
        if total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {total_steps}")
        if not 0 <= warmup_steps < total_steps:
            raise ValueError(
                f"warmup_steps must be in [0, total_steps), got {warmup_steps}"
            )
        if min_lr <= 0 or min_lr > self.base_lr:
            raise ValueError(
                f"min_lr must be in (0, base_lr={self.base_lr}], got {min_lr}"
            )
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps
        self.min_lr = min_lr

    def get_lr(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        span = self.total_steps - self.warmup_steps
        progress = min(step - self.warmup_steps, span) / span
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine
