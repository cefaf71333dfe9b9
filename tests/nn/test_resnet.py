"""Tests for the ResNet encoder and projection head."""

import numpy as np
import pytest

from repro.nn.projection import ProjectionHead
from repro.nn.resnet import BasicBlock, ResNetEncoder, resnet_micro, resnet_mini
from repro.nn.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestBasicBlock:
    def test_identity_shortcut_shape(self, rng):
        block = BasicBlock(8, 8, stride=1, rng=rng)
        assert not block.needs_projection
        out = block(Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32)))
        assert out.shape == (2, 8, 6, 6)

    def test_projection_shortcut_on_stride(self, rng):
        block = BasicBlock(8, 16, stride=2, rng=rng)
        assert block.needs_projection
        out = block(Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32)))
        assert out.shape == (2, 16, 3, 3)

    def test_projection_shortcut_on_channel_change(self, rng):
        block = BasicBlock(4, 8, stride=1, rng=rng)
        assert block.needs_projection

    def test_output_nonnegative_after_relu(self, rng):
        block = BasicBlock(4, 4, rng=rng)
        out = block(Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32)))
        assert (out.data >= 0).all()


class TestResNetEncoder:
    def test_output_shape(self, rng):
        enc = ResNetEncoder(3, widths=(8, 16), blocks_per_stage=1, rng=rng)
        out = enc(Tensor(rng.normal(size=(4, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (4, 16)
        assert enc.feature_dim == 16

    def test_rejects_non_nchw(self, rng):
        enc = resnet_micro(rng=rng)
        with pytest.raises(ValueError):
            enc(Tensor(np.zeros((3, 8, 8))))

    def test_empty_widths_raises(self, rng):
        with pytest.raises(ValueError):
            ResNetEncoder(3, widths=(), rng=rng)

    def test_deterministic_construction(self):
        a = resnet_mini(rng=np.random.default_rng(1))
        b = resnet_mini(rng=np.random.default_rng(1))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_eval_forward_deterministic(self, rng):
        enc = resnet_micro(rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        enc(x)  # populate running stats
        enc.eval()
        np.testing.assert_array_equal(enc(x).data, enc(x).data)

    def test_gradients_flow_to_all_parameters(self, rng):
        enc = resnet_micro(rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        enc(x).sum().backward()
        missing = [n for n, p in enc.named_parameters() if p.grad is None]
        assert not missing, f"parameters with no gradient: {missing}"

    def test_param_count_mini(self, rng):
        enc = resnet_mini(rng=rng)
        # architecture should be stable; pin the parameter count
        assert enc.num_parameters() == 174_608


class TestProjectionHead:
    def test_output_normalized(self, rng):
        head = ProjectionHead(16, out_dim=8, rng=rng)
        z = head(Tensor(rng.normal(size=(6, 16)).astype(np.float32)))
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), np.ones(6), rtol=1e-5)

    def test_unnormalized_option(self, rng):
        head = ProjectionHead(16, out_dim=8, normalize=False, rng=rng)
        z = head(Tensor(rng.normal(size=(6, 16)).astype(np.float32)))
        norms = np.linalg.norm(z.data, axis=1)
        assert not np.allclose(norms, np.ones(6))

    def test_hidden_dim_default(self, rng):
        head = ProjectionHead(16, out_dim=8, rng=rng)
        assert head.fc1.out_features == 16

    def test_output_dim(self, rng):
        head = ProjectionHead(16, hidden_dim=32, out_dim=4, rng=rng)
        z = head(Tensor(rng.normal(size=(3, 16)).astype(np.float32)))
        assert z.shape == (3, 4)
