"""Gradient and semantics tests for repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.helpers import assert_grad_close, leaf


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestConv2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)).astype(np.float32))
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 5, 8, 8)

    def test_stride_2_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 4, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 2, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_non_4d_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.normal(size=(3, 8, 8))), Tensor(rng.normal(size=(4, 3, 3, 3))))

    def test_identity_kernel(self):
        """A 1x1 kernel of ones with one in/out channel copies the input."""
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        np.testing.assert_allclose(F.conv2d(x, w).data, x.data)

    def test_grad_x_w_b(self, rng):
        x = leaf(rng, 2, 2, 5, 5)
        w = leaf(rng, 3, 2, 3, 3)
        b = leaf(rng, 3)
        assert_grad_close(
            lambda: (F.conv2d(x, w, b, stride=1, padding=1) ** 2).sum(),
            [x, w, b],
            atol=1e-5,
            rtol=1e-3,
        )

    def test_grad_stride_2_no_pad(self, rng):
        x = leaf(rng, 1, 2, 6, 6)
        w = leaf(rng, 2, 2, 2, 2)
        assert_grad_close(
            lambda: (F.conv2d(x, w, stride=2, padding=0) ** 2).sum(),
            [x, w],
            atol=1e-5,
            rtol=1e-3,
        )


class TestPooling:
    def test_global_avg_pool(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 3, 3)).astype(np.float32))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)), rtol=1e-5)


class TestSoftmaxFamily:
    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 5))
        exp = np.exp(x)
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x), axis=1).data,
            np.log(exp / exp.sum(axis=1, keepdims=True)),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_log_softmax_grad(self, rng):
        x = leaf(rng, 3, 5)
        w = Tensor(rng.normal(size=(3, 5)).astype(np.float64))
        assert_grad_close(lambda: (F.log_softmax(x, axis=1) * w).sum(), [x])


class TestL2Normalize:
    def test_unit_norm(self, rng):
        x = Tensor(rng.normal(size=(6, 4)))
        z = F.l2_normalize(x, axis=1)
        np.testing.assert_allclose(
            np.linalg.norm(z.data, axis=1), np.ones(6), rtol=1e-5
        )

    def test_zero_vector_safe(self):
        x = Tensor(np.zeros((1, 3)))
        z = F.l2_normalize(x)
        assert np.isfinite(z.data).all()

    def test_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)).astype(np.float64))
        assert_grad_close(lambda: (F.l2_normalize(x, axis=1) * w).sum(), [x])

    def test_grad_orthogonal_to_direction(self, rng):
        """d/dx ||x/||x|| has no component along x (norm is invariant)."""
        x = Tensor(rng.normal(size=(1, 5)).astype(np.float64), requires_grad=True)
        w = rng.normal(size=(1, 5))
        (F.l2_normalize(x, axis=1) * Tensor(w)).sum().backward()
        dot = float((x.grad * x.data).sum())
        assert dot == pytest.approx(0.0, abs=1e-10)
