"""Tests for FLOP counting."""

import numpy as np
import pytest

from repro.device.flops import count_forward_flops, training_step_flops
from repro.nn.layers import BatchNorm2d, Conv2d, Identity, Linear, Sequential
from repro.nn.projection import ProjectionHead
from repro.nn.resnet import BasicBlock, ResNetEncoder, resnet_micro


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestPrimitiveCounts:
    def test_linear_flops(self, rng):
        layer = Linear(10, 4, rng=rng)
        # 2 * 10 * 4 MAC-FLOPs + 4 bias adds
        assert count_forward_flops(layer, 0) == 84

    def test_linear_no_bias(self, rng):
        layer = Linear(10, 4, bias=False, rng=rng)
        assert count_forward_flops(layer, 0) == 80

    def test_conv_flops_hand_computed(self, rng):
        # 3x3 conv, 2->4 channels, 8x8 input, stride 1, pad 1 -> 8x8 out
        layer = Conv2d(2, 4, 3, stride=1, padding=1, rng=rng)
        expected = 2 * (4 * 8 * 8 * 2 * 3 * 3)
        assert count_forward_flops(layer, 8) == expected

    def test_conv_with_stride(self, rng):
        layer = Conv2d(1, 1, 3, stride=2, padding=1, rng=rng)
        # 8x8 -> 4x4 output
        expected = 2 * (1 * 4 * 4 * 1 * 3 * 3)
        assert count_forward_flops(layer, 8) == expected

    def test_conv_bias_counted(self, rng):
        no_bias = count_forward_flops(Conv2d(1, 2, 3, padding=1, rng=rng), 4)
        with_bias = count_forward_flops(
            Conv2d(1, 2, 3, padding=1, bias=True, rng=rng), 4
        )
        assert with_bias - no_bias == 2 * 4 * 4

    def test_batchnorm_flops(self):
        assert count_forward_flops(BatchNorm2d(4), 8) == 4 * 8 * 8

    def test_identity_free(self):
        assert count_forward_flops(Identity(), 8) == 0.0

    def test_batch_scaling_linear(self, rng):
        layer = Conv2d(2, 4, 3, padding=1, rng=rng)
        one = count_forward_flops(layer, 8, batch_size=1)
        eight = count_forward_flops(layer, 8, batch_size=8)
        assert eight == 8 * one

    def test_unknown_module_raises(self):
        class Strange:
            pass

        with pytest.raises(TypeError):
            count_forward_flops(Strange(), 8)


class TestCompositeCounts:
    def test_projection_head(self, rng):
        head = ProjectionHead(16, hidden_dim=16, out_dim=8, rng=rng)
        expected = (2 * 16 * 16 + 16) + (2 * 16 * 8 + 8) + 16 + 3 * 8
        assert count_forward_flops(head, 0) == expected

    def test_basic_block_positive(self, rng):
        block = BasicBlock(8, 8, rng=rng)
        assert count_forward_flops(block, 8) > 0

    def test_projection_block_costs_more(self, rng):
        plain = count_forward_flops(BasicBlock(8, 8, stride=1, rng=rng), 8)
        projected = count_forward_flops(BasicBlock(8, 16, stride=1, rng=rng), 8)
        assert projected > plain

    def test_encoder_flops_scale_with_resolution(self, rng):
        enc = resnet_micro(rng=rng)
        small = count_forward_flops(enc, 8)
        large = count_forward_flops(enc, 16)
        # conv cost is quadratic in resolution
        assert 3.0 < large / small < 5.0

    def test_wider_encoder_costs_more(self, rng):
        narrow = ResNetEncoder(3, widths=(8, 16), blocks_per_stage=1, rng=rng)
        wide = ResNetEncoder(3, widths=(16, 32), blocks_per_stage=1, rng=rng)
        assert count_forward_flops(wide, 8) > count_forward_flops(narrow, 8)

    def test_sequential_sums_members(self, rng):
        seq = Sequential(BatchNorm2d(4), Identity())
        assert count_forward_flops(seq, 8) == count_forward_flops(BatchNorm2d(4), 8)


class TestTrainingStep:
    def test_three_times_two_forwards(self, rng):
        enc = resnet_micro(rng=rng)
        head = ProjectionHead(enc.feature_dim, out_dim=8, rng=rng)
        forward = count_forward_flops(enc, 8, 4) + count_forward_flops(head, 8, 4)
        step = training_step_flops(enc, head, 8, 4)
        assert step == pytest.approx(6 * forward)
