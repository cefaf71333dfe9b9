"""Tests for the Module system and built-in layers."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Identity,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Sequential,
)
from repro.nn.tensor import Tensor

from tests.helpers import assert_grad_close


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TinyNet(Module):
    """Small composite model used to exercise traversal."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=rng)
        self.blocks = ModuleList([Linear(8, 8, rng=rng), Linear(8, 8, rng=rng)])
        self.head = Linear(8, 2, rng=rng)

    def forward(self, x):
        x = self.fc1(x).relu()
        for block in self.blocks:
            x = block(x).relu()
        return self.head(x)


class TestModuleTraversal:
    def test_named_parameters_counts(self, rng):
        net = TinyNet(rng)
        names = [n for n, _ in net.named_parameters()]
        # 4 linears x (weight, bias)
        assert len(names) == 8
        assert "fc1.weight" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert "head.weight" in names

    def test_parameters_are_parameter_instances(self, rng):
        net = TinyNet(rng)
        assert all(isinstance(p, Parameter) for p in net.parameters())

    def test_num_parameters(self, rng):
        net = TinyNet(rng)
        expected = (4 * 8 + 8) + 2 * (8 * 8 + 8) + (8 * 2 + 2)
        assert net.num_parameters() == expected

    def test_train_eval_propagates(self, rng):
        net = TinyNet(rng)
        net.eval()
        assert not net.training
        assert not net.blocks[0].training
        net.train()
        assert net.blocks[1].training

    def test_zero_grad_clears_all(self, rng):
        net = TinyNet(rng)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        net2 = TinyNet(np.random.default_rng(7))
        net2.load_state_dict(state)
        for (_, p1), (_, p2) in zip(net.named_parameters(), net2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_state_dict_is_a_copy(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        state["fc1.weight"][:] = 0
        assert net.fc1.weight.data.any()

    def test_load_state_dict_missing_key_raises(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        del state["fc1.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_unexpected_key_raises(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        names = [n for n, _ in layer.named_parameters()]
        assert names == ["weight"]

    def test_wrong_input_dim_raises(self, rng):
        layer = Linear(3, 2, rng=rng)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 4))))

    def test_invalid_dims_raise(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 2, rng=rng)

    def test_deterministic_init_from_seeded_rng(self):
        a = Linear(4, 4, rng=np.random.default_rng(3))
        b = Linear(4, 4, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestConv2dLayer:
    def test_forward_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=1, padding=1, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32)))
        assert out.shape == (2, 8, 6, 6)

    def test_bias_toggle(self, rng):
        assert Conv2d(1, 1, 3, bias=True, rng=rng).bias is not None
        assert Conv2d(1, 1, 3, bias=False, rng=rng).bias is None


class TestBatchNorm2d:
    def test_train_mode_normalizes_batch(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)).astype(np.float32))
        out = bn(x)
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(std, np.ones(4), atol=1e-3)

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 4, 4)).astype(np.float32))
        bn(x)
        running_mean = bn.get_buffer("running_mean")
        assert running_mean == pytest.approx(
            0.5 * x.data.mean(axis=(0, 2, 3)), abs=1e-4
        )

    def test_eval_mode_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(8, 2, 4, 4)).astype(np.float32))
        for _ in range(20):
            bn(x)
        bn.eval()
        single = Tensor(x.data[:1])
        out = bn(single)
        # eval output must not depend on other batch entries
        out_full = bn(x)
        np.testing.assert_allclose(out.data, out_full.data[:1], rtol=1e-5)

    def test_eval_deterministic(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(4, 3, 4, 4)).astype(np.float32))
        bn(x)
        bn.eval()
        np.testing.assert_array_equal(bn(x).data, bn(x).data)

    def test_wrong_channels_raises(self, rng):
        bn = BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((1, 4, 2, 2))))

    def test_train_grad_x_gamma_beta(self, rng):
        bn = BatchNorm2d(2)
        bn.gamma.data = rng.normal(1.0, 0.1, size=2).astype(np.float64)
        bn.beta.data = rng.normal(0.0, 0.1, size=2).astype(np.float64)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float64), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float64))
        assert_grad_close(
            lambda: (bn(x) * w).sum(), [x, bn.gamma, bn.beta], atol=1e-5, rtol=1e-3
        )

    def test_eval_grad_x(self, rng):
        bn = BatchNorm2d(2)
        # establish non-trivial running stats
        bn(Tensor(rng.normal(2.0, 3.0, size=(16, 2, 4, 4)).astype(np.float32)))
        bn.eval()
        bn.gamma.data = bn.gamma.data.astype(np.float64)
        bn.beta.data = bn.beta.data.astype(np.float64)
        x = Tensor(rng.normal(size=(3, 2, 2, 2)).astype(np.float64), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 2, 2)).astype(np.float64))
        assert_grad_close(
            lambda: (bn(x) * w).sum(), [x, bn.gamma, bn.beta], atol=1e-5, rtol=1e-3
        )

    def test_buffers_in_state_dict(self, rng):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        assert "running_mean" in state
        assert "running_var" in state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_forward_is_bitwise_the_two_pass_formula(self, dtype, seed):
        """One batch mean feeds both the variance and ``x_hat``; output and
        running statistics equal, byte for byte, the formula built on
        ``x.mean`` and ``x.var``, on maps holding signed zeros,
        subnormals, infinities and NaN."""
        rng = np.random.default_rng(seed)
        x = rng.normal(2.0, 3.0, size=(4, 6, 3, 5)).astype(dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        x[:, 1] = rng.choice([0.0, -0.0, tiny, -tiny, 7 * tiny], size=x[:, 1].shape)
        x[1, 2, 0, 0] = -0.0
        x[0, 3, 1, 2] = np.inf
        x[2, 4, 2, 4] = np.nan
        x[3, 5, 0, 1], x[0, 5, 2, 3] = np.inf, -np.inf
        bn = BatchNorm2d(6, momentum=0.3)
        bn.gamma.data = rng.normal(1.0, 0.5, size=6).astype(np.float32)
        bn.beta.data = rng.normal(0.0, 0.5, size=6).astype(np.float32)
        running_mean = rng.normal(size=6).astype(np.float32)
        running_var = rng.uniform(0.5, 2.0, size=6).astype(np.float32)
        bn._buffers["running_mean"] = running_mean.copy()
        bn._buffers["running_var"] = running_var.copy()
        with np.errstate(all="ignore"):
            out = bn(Tensor(x)).data
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            n = x.shape[0] * x.shape[2] * x.shape[3]
            unbiased = var * n / max(n - 1, 1)
            expected_mean = ((1 - 0.3) * running_mean + 0.3 * mean).astype(np.float32)
            expected_var = ((1 - 0.3) * running_var + 0.3 * unbiased).astype(np.float32)
            inv_std = 1.0 / np.sqrt(var.reshape(1, -1, 1, 1) + bn.eps)
            x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std
            expected = x_hat * bn.gamma.data.reshape(1, -1, 1, 1) + bn.beta.data.reshape(
                1, -1, 1, 1
            )
        assert np.isnan(out).any() and np.isfinite(out[:, 0]).all()
        assert out.dtype == dtype
        assert out.tobytes() == expected.astype(dtype, copy=False).tobytes()
        assert bn.get_buffer("running_mean").tobytes() == expected_mean.tobytes()
        assert bn.get_buffer("running_var").tobytes() == expected_var.tobytes()


class TestContainers:
    def test_sequential_applies_in_order(self, rng):
        seq = Sequential(Linear(4, 8, rng=rng), Identity(), Linear(8, 2, rng=rng))
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        manual = seq[2](seq[1](seq[0](x)))
        np.testing.assert_array_equal(seq(x).data, manual.data)

    def test_sequential_len_getitem(self, rng):
        seq = Sequential(Linear(2, 2, rng=rng), Identity())
        assert len(seq) == 2
        assert isinstance(seq[1], Identity)

    def test_sequential_parameters_traversed(self, rng):
        seq = Sequential(Linear(2, 3, rng=rng), Linear(3, 2, rng=rng))
        assert len(seq.parameters()) == 4

    def test_modulelist_append_iter(self, rng):
        ml = ModuleList()
        first, second = Identity(), Identity()
        ml.append(first)
        ml.append(second)
        assert len(ml) == 2
        assert list(ml)[0] is first and list(ml)[1] is second

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x
