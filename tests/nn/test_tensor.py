"""Unit tests for the autograd Tensor: op semantics and gradients."""

import os
import pathlib
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import BatchNorm2d, Conv2d
from repro.nn.losses import nt_xent_loss
from repro.nn.tensor import Tensor, _topological_order, no_grad, unbroadcast

from tests.helpers import assert_grad_close, leaf


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestConstruction:
    def test_default_dtype_is_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_float64_array_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_int_input_cast_to_float32(self):
        t = Tensor(np.arange(3))
        assert t.dtype == np.float32

    def test_wrapping_tensor_raises(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_item_non_scalar_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).item()

    def test_zeros_ones_constructors(self):
        z = Tensor.zeros(2, 3)
        o = Tensor.ones(4)
        assert z.shape == (2, 3) and not z.data.any()
        assert o.shape == (4,) and (o.data == 1).all()

    def test_copy_is_independent(self):
        t = Tensor(np.ones(3))
        c = t.copy()
        c.data[0] = 5.0
        assert t.data[0] == 1.0


class TestForwardSemantics:
    def test_add_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4,)))
        np.testing.assert_allclose((a + b).data, a.data + b.data, rtol=1e-6)

    def test_radd_scalar(self):
        t = 2.0 + Tensor([1.0])
        assert t.data[0] == pytest.approx(3.0)

    def test_sub_and_rsub(self):
        t = Tensor([5.0])
        assert (t - 2.0).data[0] == pytest.approx(3.0)
        assert (10.0 - t).data[0] == pytest.approx(5.0)

    def test_mul_div(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 3)) + 5.0)
        np.testing.assert_allclose((a * b).data, a.data * b.data, rtol=1e-6)
        np.testing.assert_allclose((a / b).data, a.data / b.data, rtol=1e-6)

    def test_rtruediv(self):
        t = Tensor([4.0])
        assert (8.0 / t).data[0] == pytest.approx(2.0)

    def test_pow(self):
        t = Tensor([2.0, 3.0])
        np.testing.assert_allclose((t**2).data, [4.0, 9.0], rtol=1e-6)

    def test_pow_tensor_exponent_raises(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data, rtol=1e-5)

    def test_relu(self):
        t = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(t.relu().data, [0.0, 0.0, 2.0])

    def test_exp_log_sqrt(self, rng):
        x = np.abs(rng.normal(size=5)) + 0.5
        t = Tensor(x)
        np.testing.assert_allclose(t.exp().data, np.exp(x).astype(np.float32), rtol=1e-6)
        np.testing.assert_allclose(t.log().data, np.log(x).astype(np.float32), rtol=1e-6)
        np.testing.assert_allclose(t.sqrt().data, np.sqrt(x).astype(np.float32), rtol=1e-6)

    def test_abs(self):
        t = Tensor([-2.0, 3.0])
        np.testing.assert_array_equal(t.abs().data, [2.0, 3.0])

    def test_maximum(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        np.testing.assert_array_equal(a.maximum(b).data, [3.0, 5.0])

    def test_clip(self):
        t = Tensor([-2.0, 0.5, 2.0])
        np.testing.assert_array_equal(t.clip(-1.0, 1.0).data, [-1.0, 0.5, 1.0])

    def test_sum_axis_keepdims(self, rng):
        x = rng.normal(size=(2, 3, 4))
        t = Tensor(x)
        np.testing.assert_allclose(
            t.sum(axis=1, keepdims=True).data,
            x.sum(axis=1, keepdims=True).astype(np.float32),
            rtol=1e-5,
        )

    def test_mean_all(self, rng):
        x = rng.normal(size=(4, 5))
        assert Tensor(x).mean().item() == pytest.approx(x.mean(), rel=1e-5)

    def test_max_axis(self, rng):
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(
            Tensor(x).max(axis=1).data, x.max(axis=1).astype(np.float32), rtol=1e-6
        )

    def test_reshape(self, rng):
        t = Tensor(rng.normal(size=(2, 3, 4)))
        assert t.reshape(6, 4).shape == (6, 4)
        assert t.reshape((4, 6)).shape == (4, 6)

    def test_transpose_default_and_axes(self, rng):
        t = Tensor(rng.normal(size=(2, 3, 4)))
        assert t.transpose().shape == (4, 3, 2)
        assert t.transpose(1, 0, 2).shape == (3, 2, 4)
        assert t.T.shape == (4, 3, 2)

    def test_getitem_slice_and_fancy(self, rng):
        x = rng.normal(size=(4, 5)).astype(np.float32)
        t = Tensor(x)
        np.testing.assert_array_equal(t[1:3].data, x[1:3])
        idx = np.array([0, 2])
        np.testing.assert_array_equal(t[idx].data, x[idx])

    def test_concat(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(4, 3)))
        assert Tensor.concat([a, b], axis=0).shape == (6, 3)

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            Tensor.concat([])

    def test_comparison_returns_numpy(self):
        t = Tensor([1.0, 3.0])
        mask = t > 2.0
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [False, True])


class TestBackward:
    def test_backward_requires_grad_flag(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_non_scalar_needs_seed(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_seed_shape_mismatch(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(4))

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t.sum()).backward()
        (t.sum()).backward()
        np.testing.assert_array_equal(t.grad, [2.0, 2.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_only_leaves_keep_grad(self, rng):
        """After backward through conv -> BN -> ReLU -> NT-Xent, every op
        result keeps ``grad`` None and every parameter and input leaf
        has one, as in PyTorch.  ``backward()`` releases the graph, so
        the op results and the graph's leaves are collected before it."""
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        bn = BatchNorm2d(4)
        views = [
            Tensor(rng.normal(size=(4, 3, 6, 6)).astype(np.float32), requires_grad=True)
            for _ in range(2)
        ]
        results = []

        def project(v):
            for op in (conv, bn, Tensor.relu, lambda t: t.mean(axis=(2, 3))):
                v = op(v)
                results.append(v)
            results.append(F.l2_normalize(v, axis=1))
            return results[-1]

        z1, z2 = (project(v) for v in views)
        loss = nt_xent_loss(z1, z2, 0.5)
        results.append(loss)
        nodes = _topological_order(loss._node)
        leaves = {id(node) for node in nodes if node._backward is None}
        loss.backward()
        assert all(r.requires_grad and r.grad is None for r in results)
        parameters = conv.parameters() + bn.parameters()
        assert {id(p) for p in parameters + views} <= leaves
        assert all(p.grad is not None and p.grad.shape == p.shape for p in parameters + views)

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x  =>  dy/dx = 2x + 1
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_shared_subexpression(self):
        x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        s = x * 3.0
        y = s * s  # y = 9x^2, dy/dx = 18x
        y.backward()
        np.testing.assert_allclose(x.grad, [36.0])

    def test_no_grad_context(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._node is None

    def test_no_grad_nesting_restores(self):
        from repro.nn.tensor import is_grad_enabled

        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestGraphRetention:
    """The graph keeps only what backward reads, and backward releases it."""

    def test_forward_frees_activations_backward_does_not_read(self, rng):
        """A training conv -> BN -> ReLU -> conv -> BN -> residual add ->
        ReLU chain: no output array outlives the forward (the closures
        keep columns, masks and normalized inputs, not outputs), and
        the gradients still reach every leaf."""
        conv1 = Conv2d(4, 4, 3, padding=1, rng=rng)
        conv2 = Conv2d(4, 4, 3, padding=1, rng=rng)
        bn1, bn2 = BatchNorm2d(4), BatchNorm2d(4)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)).astype(np.float32), requires_grad=True)
        outputs = []

        def forward():
            h = x
            for op in (conv1, bn1, Tensor.relu, conv2, bn2, lambda t: t + x, Tensor.relu):
                h = op(h)
                outputs.append(weakref.ref(h.data))
            return h.mean()

        loss = forward()
        assert [ref() is None for ref in outputs] == [True] * len(outputs)
        loss.backward()
        leaves = [x] + [p for m in (conv1, bn1, conv2, bn2) for p in m.parameters()]
        assert all(p.grad is not None and p.grad.shape == p.shape for p in leaves)

    def test_second_backward_through_released_graph_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 3.0
        loss = y.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        # A new graph that reaches a released node fails before any
        # gradient moves.
        with pytest.raises(RuntimeError, match="released"):
            (y * 2.0 + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])


#: Prints how many steady-state stream steps it measured and their
#: median minor page faults: a fresh interpreter runs the default config
#: for 11 steps; the first 3 warm up (arenas, the first backward()).
FAULTS_PER_STEP = """
import resource, statistics
from repro.experiments.config import default_config
from repro.session import Session

config = default_config(seed=0)
config = config.with_(
    total_samples=11 * config.buffer_size,
    probe_epochs=1, probe_train_per_class=2, probe_test_per_class=2,
)
faults = []
Session.from_config(config, policy="contrast-scoring").with_eval_points(1).on_step(
    lambda learner, stats: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
).run()
steps = [after - before for before, after in zip(faults[2:], faults[3:])]
print(len(steps), statistics.median(steps))
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the policy sets glibc malloc thresholds"
)
def test_steady_stream_step_reuses_the_heap():
    """The first ``backward()`` raises glibc's mmap and trim thresholds, so
    a step reuses the memory the previous step freed.  Without that, the
    heap top a step frees is returned to the kernel and the next step
    faults it back in: thousands of minor page faults per step."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_STEP],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    measured, median = out.stdout.split()
    assert int(measured) == 8
    assert float(median) < 64


class TestGradCheck:
    """Finite-difference verification of every differentiable op."""

    def test_add_broadcast(self, rng):
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4)
        assert_grad_close(lambda: (a + b).sum(), [a, b])

    def test_mul_broadcast(self, rng):
        a = leaf(rng, 2, 3)
        b = leaf(rng, 1, 3)
        assert_grad_close(lambda: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = leaf(rng, 4)
        b = Tensor(rng.normal(size=4) + 3.0, requires_grad=True)
        assert_grad_close(lambda: (a / b).sum(), [a, b])

    def test_pow(self, rng):
        a = Tensor(np.abs(rng.normal(size=5)) + 0.5, requires_grad=True)
        assert_grad_close(lambda: (a**3).sum(), [a])

    def test_matmul(self, rng):
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4, 2)
        assert_grad_close(lambda: (a @ b).sum(), [a, b])

    def test_matmul_vec(self, rng):
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4)
        assert_grad_close(lambda: (a @ b).sum(), [a, b])

    def test_exp_log(self, rng):
        a = Tensor(np.abs(rng.normal(size=4)) + 0.5, requires_grad=True)
        assert_grad_close(lambda: (a.exp() + a.log()).sum(), [a])

    def test_sqrt(self, rng):
        a = Tensor(np.abs(rng.normal(size=4)) + 1.0, requires_grad=True)
        assert_grad_close(lambda: a.sqrt().sum(), [a])

    def test_relu(self, rng):
        a = Tensor(rng.normal(size=8) + 0.05, requires_grad=True)
        assert_grad_close(lambda: a.relu().sum(), [a])

    def test_abs(self, rng):
        a = Tensor(rng.normal(size=6) + 0.3, requires_grad=True)
        assert_grad_close(lambda: a.abs().sum(), [a])

    def test_maximum(self, rng):
        a = leaf(rng, 5)
        b = leaf(rng, 5)
        assert_grad_close(lambda: a.maximum(b).sum(), [a, b])

    def test_clip(self, rng):
        a = Tensor(rng.normal(size=8) * 2, requires_grad=True)
        assert_grad_close(lambda: a.clip(-1.0, 1.0).sum(), [a])

    def test_sum_axis(self, rng):
        a = leaf(rng, 3, 4)
        assert_grad_close(lambda: (a.sum(axis=0) ** 2).sum(), [a])

    def test_mean_axis_keepdims(self, rng):
        a = leaf(rng, 2, 3, 4)
        assert_grad_close(lambda: (a.mean(axis=(1, 2), keepdims=True) ** 2).sum(), [a])

    def test_max_reduction(self, rng):
        a = leaf(rng, 3, 5)
        assert_grad_close(lambda: a.max(axis=1).sum(), [a])

    def test_reshape_transpose(self, rng):
        a = leaf(rng, 2, 6)
        assert_grad_close(lambda: (a.reshape(3, 4).transpose() ** 2).sum(), [a])

    def test_getitem(self, rng):
        a = leaf(rng, 5, 3)
        assert_grad_close(lambda: (a[1:4] ** 2).sum(), [a])

    def test_getitem_fancy_repeated_index(self, rng):
        a = leaf(rng, 4)
        idx = np.array([0, 0, 2])
        assert_grad_close(lambda: (a[idx]).sum(), [a])

    def test_concat(self, rng):
        a = leaf(rng, 2, 3)
        b = leaf(rng, 3, 3)
        assert_grad_close(lambda: (Tensor.concat([a, b], axis=0) ** 2).sum(), [a, b])


class TestUnbroadcast:
    def test_no_op_when_shapes_match(self, rng):
        g = rng.normal(size=(3, 4))
        assert unbroadcast(g, (3, 4)) is g

    def test_sums_leading_axes(self, rng):
        g = rng.normal(size=(5, 3, 4))
        out = unbroadcast(g, (3, 4))
        np.testing.assert_allclose(out, g.sum(axis=0))

    def test_sums_expanded_axes(self, rng):
        g = rng.normal(size=(3, 4))
        out = unbroadcast(g, (3, 1))
        np.testing.assert_allclose(out, g.sum(axis=1, keepdims=True))

    def test_scalar_target(self, rng):
        g = rng.normal(size=(2, 2))
        out = unbroadcast(g, ())
        assert out.shape == ()
        np.testing.assert_allclose(out, g.sum())
