"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import functional as F
from repro.nn.tensor import Tensor, unbroadcast

SETTINGS = dict(max_examples=40, deadline=None)


def finite_arrays(min_dims=1, max_dims=3, min_side=1, max_side=5):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(
            min_dims=min_dims, max_dims=max_dims, min_side=min_side, max_side=max_side
        ),
        elements=st.floats(-10, 10, allow_nan=False, width=64),
    )


class TestArithmeticProperties:
    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_add_commutative(self, x):
        a, b = Tensor(x), Tensor(x[::-1].copy())
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_double_negation_identity(self, x):
        t = Tensor(x)
        np.testing.assert_allclose((-(-t)).data, x)

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_mul_by_one_identity(self, x):
        t = Tensor(x)
        np.testing.assert_allclose((t * 1.0).data, x)

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_sum_grad_is_ones(self, x):
        t = Tensor(x, requires_grad=True)
        t.sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones_like(x))

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_mean_grad_uniform(self, x):
        t = Tensor(x, requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 1.0 / x.size))

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_linear_combination_gradient(self, x):
        """d(a*x + b*x)/dx = a + b everywhere."""
        t = Tensor(x, requires_grad=True)
        (t * 3.0 + t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 5.0))

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_relu_output_nonnegative(self, x):
        assert (Tensor(x).relu().data >= 0).all()

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_relu_idempotent(self, x):
        t = Tensor(x)
        np.testing.assert_array_equal(t.relu().data, t.relu().relu().data)

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_exp_log_inverse(self, x):
        t = Tensor(np.abs(x) + 0.5)
        np.testing.assert_allclose(t.log().exp().data, t.data, rtol=1e-9)

    @settings(**SETTINGS)
    @given(finite_arrays())
    def test_reshape_preserves_sum(self, x):
        t = Tensor(x)
        flat = t.reshape(x.size)
        np.testing.assert_allclose(flat.sum().item(), x.sum(), rtol=1e-9, atol=1e-9)


class TestSoftmaxProperties:
    @settings(**SETTINGS)
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 8)),
            elements=st.floats(-30, 30, allow_nan=False, width=64),
        )
    )
    def test_log_softmax_nonpositive(self, x):
        assert (F.log_softmax(Tensor(x), axis=1).data <= 1e-12).all()


class TestNormalizeProperties:
    @settings(**SETTINGS)
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(-10, 10, allow_nan=False, width=64),
        ).filter(lambda x: (np.linalg.norm(x, axis=1) > 1e-3).all())
    )
    def test_l2_normalize_unit_norm(self, x):
        z = F.l2_normalize(Tensor(x), axis=1).data
        np.testing.assert_allclose(
            np.linalg.norm(z, axis=1), np.ones(x.shape[0]), rtol=1e-6
        )

    @settings(**SETTINGS)
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(0.1, 10, allow_nan=False, width=64),
        ),
        st.floats(0.5, 5.0),
    )
    def test_l2_normalize_scale_invariant(self, x, scale):
        a = F.l2_normalize(Tensor(x), axis=1).data
        b = F.l2_normalize(Tensor(x * scale), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestUnbroadcastProperties:
    @settings(**SETTINGS)
    @given(finite_arrays(min_dims=2, max_dims=3))
    def test_unbroadcast_preserves_total(self, g):
        """Summed-out gradients preserve the total mass."""
        target_shape = g.shape[1:]
        out = unbroadcast(g, target_shape)
        np.testing.assert_allclose(out.sum(), g.sum(), rtol=1e-9)

    @settings(**SETTINGS)
    @given(finite_arrays(min_dims=1, max_dims=3))
    def test_unbroadcast_identity(self, g):
        assert unbroadcast(g, g.shape) is g
