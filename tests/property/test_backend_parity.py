"""Property tests: numpy-vs-fused agreement on conv/bn/pool/losses.

The backend contract (DESIGN.md §8) is two-sided:

* forwards may differ only within float32 tolerance (the fused backend
  reassociates GEMMs and runs float32 scoring), and
* anything recorded on the autograd graph — training forwards and every
  backward — is bitwise identical across backends.

The numpy channels-last chain is the reference for the first side: it
is bitwise the module path ``bn(conv(x))`` (+ ReLU).  These properties
drive both sides over randomized shapes and values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.backend import FusedBackend, NumpyBackend, get_backend, set_backend, use_backend
from repro.nn.layers import BatchNorm2d, Conv2d
from repro.nn.losses import NTXentLoss, nt_xent_loss
from repro.nn.tensor import Tensor, no_grad

SETTINGS = dict(max_examples=25, deadline=None)


@pytest.fixture(autouse=True)
def _restore_backend():
    before = get_backend()
    yield
    set_backend(before)


def _images(rng: np.random.Generator, n: int, c: int, hw: int) -> np.ndarray:
    return rng.normal(size=(n, c, hw, hw)).astype(np.float32)


def _eval_bn(rng: np.random.Generator, c: int) -> BatchNorm2d:
    bn = BatchNorm2d(c)
    bn.set_buffer("running_mean", rng.normal(size=c).astype(np.float32))
    bn.set_buffer("running_var", rng.uniform(0.25, 4.0, size=c).astype(np.float32))
    return bn.eval()


def _chain(backend, x: np.ndarray, conv: Conv2d, bn, relu: bool) -> np.ndarray:
    """One conv(→BN)(→ReLU) link of ``backend``'s chain, back in NCHW."""
    scale, shift = (None, None) if bn is None else F.bn_eval_affine(bn)
    out = backend.conv_bn_nhwc(
        np.ascontiguousarray(x.transpose(0, 2, 3, 1)),
        conv.weight.data,
        None if conv.bias is None else conv.bias.data,
        conv.stride,
        conv.padding,
        scale,
        shift,
        relu,
    )
    return out.transpose(0, 3, 1, 2)


class TestForwardParity:
    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 4),
        c_in=st.integers(1, 4),
        c_out=st.integers(1, 5),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1]),
    )
    def test_conv2d_infer(self, seed, n, c_in, c_out, stride, padding):
        """A plain convolution (no BN) through both chains."""
        rng = np.random.default_rng(seed)
        x = _images(rng, n, c_in, 6)
        conv = Conv2d(c_in, c_out, 3, stride=stride, padding=padding, rng=rng)
        ref = _chain(NumpyBackend(), x, conv, None, relu=False)
        out = _chain(FusedBackend(), x, conv, None, relu=False)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    @settings(**SETTINGS)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5), c=st.integers(1, 4))
    def test_conv_bn_relu_eval(self, seed, n, c):
        rng = np.random.default_rng(seed)
        conv = Conv2d(c, 4, 3, stride=1, padding=1, rng=rng)
        bn = _eval_bn(rng, 4)
        x = _images(rng, n, c, 6)
        ref = _chain(NumpyBackend(), x, conv, bn, relu=True)
        out = _chain(FusedBackend(), x, conv, bn, relu=True)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    @settings(**SETTINGS)
    @given(seed=st.integers(0, 2**31 - 1), kernel=st.sampled_from([2, 3]))
    def test_pooling(self, seed, kernel):
        rng = np.random.default_rng(seed)
        x = Tensor(_images(rng, 3, 2, kernel * 3))
        with no_grad():
            for op in (F.max_pool2d, F.avg_pool2d):
                with use_backend("numpy"):
                    ref = op(x, kernel).data
                with use_backend("fused"):
                    out = op(x, kernel).data
                np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-6)
            with use_backend("numpy"):
                ref = F.global_avg_pool2d(x).data
            with use_backend("fused"):
                out = F.global_avg_pool2d(x).data
            np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-6)

    @settings(**SETTINGS)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 8), d=st.integers(2, 16))
    def test_losses(self, seed, n, d):
        rng = np.random.default_rng(seed)
        z1 = Tensor(rng.normal(size=(n, d)).astype(np.float32))
        z2 = Tensor(rng.normal(size=(n, d)).astype(np.float32))
        with no_grad():
            with use_backend("numpy"):
                loss_ref = float(nt_xent_loss(z1, z2).data)
                per_ref = NTXentLoss().per_sample(z1, z2)
            with use_backend("fused"):
                loss_out = float(nt_xent_loss(z1, z2).data)
                per_out = NTXentLoss().per_sample(z1, z2)
        assert loss_out == pytest.approx(loss_ref, rel=1e-5, abs=1e-6)
        np.testing.assert_allclose(per_out, per_ref, rtol=1e-5, atol=1e-7)


class TestReferenceChain:
    """The numpy chain link is the module path bit for bit; the fused
    one agrees within the forward tolerance."""

    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 5),
        c_in=st.integers(1, 6),
        c_out=st.integers(1, 24),
        hw=st.integers(3, 10),
        conv_shape=st.sampled_from([(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]),
        bias=st.booleans(),
        relu=st.booleans(),
    )
    def test_conv_bn_nhwc(self, seed, n, c_in, c_out, hw, conv_shape, bias, relu):
        kernel, stride, padding = conv_shape
        rng = np.random.default_rng(seed)
        conv = Conv2d(
            c_in, c_out, kernel, stride=stride, padding=padding, bias=bias, rng=rng
        )
        if bias:
            conv.bias.data[:] = rng.normal(size=c_out)
        bn = _eval_bn(rng, c_out)
        x = _images(rng, n, c_in, hw)
        with no_grad(), use_backend("numpy"):
            ref = F.conv_bn_relu(Tensor(x), conv, bn, relu=relu).data
        out = _chain(NumpyBackend(), x, conv, bn, relu)
        np.testing.assert_array_equal(out, ref)
        assert np.ascontiguousarray(out).tobytes() == ref.tobytes()  # zero signs too
        fused = _chain(FusedBackend(), x, conv, bn, relu)
        np.testing.assert_allclose(fused, ref, rtol=1e-4, atol=1e-5)


class TestBackwardBitwiseParity:
    """Backward passes are *bitwise* equal: fusion is no_grad-only."""

    @settings(**SETTINGS)
    @given(seed=st.integers(0, 2**31 - 1), stride=st.sampled_from([1, 2]))
    def test_conv_bn_pool_chain(self, seed, stride):
        x_data = np.random.default_rng(seed).normal(size=(2, 3, 8, 8)).astype(
            np.float32
        )

        def run():
            rng = np.random.default_rng(0)
            conv = Conv2d(3, 4, 3, stride=stride, padding=1, rng=rng)
            bn = BatchNorm2d(4)
            x = Tensor(x_data.copy(), requires_grad=True)
            out = F.avg_pool2d(F.conv_bn_relu(x, conv, bn), 2)
            out.sum().backward()
            return out.data, x.grad, conv.weight.grad, bn.gamma.grad

        with use_backend("numpy"):
            ref = run()
        with use_backend("fused"):
            out = run()
        for r, o in zip(ref, out):
            np.testing.assert_array_equal(r, o)

    @settings(**SETTINGS)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 6))
    def test_nt_xent_backward(self, seed, n):
        z_data = np.random.default_rng(seed).normal(size=(n, 8)).astype(np.float32)

        def run():
            z1 = Tensor(z_data.copy(), requires_grad=True)
            z2 = Tensor(z_data[::-1].copy(), requires_grad=True)
            nt_xent_loss(F.l2_normalize(z1), F.l2_normalize(z2)).backward()
            return z1.grad, z2.grad

        with use_backend("numpy"):
            ref = run()
        with use_backend("fused"):
            out = run()
        for r, o in zip(ref, out):
            np.testing.assert_array_equal(r, o)
