"""Tests for the Adam optimizer and the lr scaling rule."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.optim import Adam, sqrt_batch_lr_scale
from repro.nn.tensor import Tensor


def quadratic_loss(p: Parameter) -> Tensor:
    """0.5 * ||p - 3||^2, minimized at p = 3."""
    diff = p - 3.0
    return (diff * diff).sum() * 0.5


class TestOptimizerBase:
    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=0.0)

    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        opt = Adam([p], lr=0.1)
        quadratic_loss(p).backward()
        assert p.grad is not None
        opt.zero_grad()
        assert p.grad is None

    def test_step_skips_params_without_grad(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, |Δp| of the first Adam step ≈ lr."""
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.01)
        quadratic_loss(p).backward()
        opt.step()
        assert abs(p.data[0] - 10.0) == pytest.approx(0.01, rel=1e-3)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.5)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert p.data[0] == pytest.approx(3.0, abs=1e-2)

    def test_invalid_betas_raise(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.999))

    def test_weight_decay_applied(self):
        p = Parameter(np.array([2.0]))
        opt = Adam([p], lr=0.1, weight_decay=0.1)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] < 2.0

    def test_state_tracked_per_parameter(self):
        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([1.0]))
        opt = Adam([p1, p2], lr=0.1)
        p1.grad = np.ones(1, dtype=np.float32)
        p2.grad = -np.ones(1, dtype=np.float32)
        opt.step()
        assert p1.data[0] < 1.0 < p2.data[0]


class TestLrScale:
    def test_identity_at_base_batch(self):
        assert sqrt_batch_lr_scale(1e-4, 256) == pytest.approx(1e-4)

    def test_sqrt_rule(self):
        assert sqrt_batch_lr_scale(1e-4, 64) == pytest.approx(5e-5)

    def test_paper_table2_ordering(self):
        """lr grows monotonically with buffer size as in Table II."""
        lrs = [sqrt_batch_lr_scale(1e-4, b) for b in (8, 32, 128, 256)]
        assert lrs == sorted(lrs)

    def test_invalid_batch_raises(self):
        with pytest.raises(ValueError):
            sqrt_batch_lr_scale(1e-4, 0)
