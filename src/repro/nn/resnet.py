"""ResNet encoder ``f(·)`` — the paper's base encoder, CPU-scaled.

The paper trains a ResNet-18 on GPU; this substrate implements the same
architecture family (conv-BN-ReLU basic blocks with identity shortcuts,
strided downsampling between stages, global average pooling) with
configurable depth and width so experiments fit a CPU budget.
``resnet_mini`` is 3 stages × 2 blocks with widths (16, 32, 64), the
classic CIFAR-style ResNet-14 layout at reduced width; unlike the other
factories it is not a registered encoder.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.backend.base import ArrayBackend, get_backend
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Module,
    ModuleList,
    Sequential,
)
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.registry import register_encoder

__all__ = ["BasicBlock", "ResNetEncoder", "resnet_mini", "resnet_micro"]

#: Most images one eval no-grad forward unfolds at once.  The unfold
#: scratch arenas grow to the largest forward they serve and live as
#: long as the process (:class:`repro.nn.im2col.Im2colWorkspace`), so
#: an unblocked 400-image probe pool pinned ~29 MB of columns for good;
#: 32 images of the 12-px default encoder need ~2 MB.  Larger batches
#: run as near-equal blocks (see :meth:`ResNetEncoder.forward`).
EVAL_BLOCK = 32


def _conv_bn_nhwc(
    backend: ArrayBackend, x: np.ndarray, conv: Conv2d, bn: BatchNorm2d, relu: bool
) -> np.ndarray:
    """One conv→BN(→ReLU) link of the channels-last chain."""
    scale, shift = F.bn_eval_affine(bn)
    return backend.conv_bn_nhwc(
        x,
        conv.weight.data,
        None if conv.bias is None else conv.bias.data,
        conv.stride,
        conv.padding,
        scale,
        shift,
        relu,
    )


class BasicBlock(Module):
    """Two 3×3 conv-BN pairs with an identity (or projected) shortcut."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, rng=rng
        )
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.needs_projection = stride != 1 or in_channels != out_channels
        if self.needs_projection:
            self.shortcut_conv = Conv2d(
                in_channels, out_channels, 1, stride=stride, padding=0, rng=rng
            )
            self.shortcut_bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv_bn_relu(x, self.conv1, self.bn1)
        out = F.conv_bn_relu(out, self.conv2, self.bn2, relu=False)
        shortcut = (
            F.conv_bn_relu(x, self.shortcut_conv, self.shortcut_bn, relu=False)
            if self.needs_projection
            else x
        )
        return F.add_relu(out, shortcut)

    def _infer_nhwc(self, h: np.ndarray, backend: ArrayBackend) -> np.ndarray:
        """Channels-last gradient-free forward (one leg of the chain).

        Mirrors :meth:`forward` exactly, on raw NHWC arrays; entered by
        :meth:`ResNetEncoder.forward` on eval no-grad calls.
        """
        out = _conv_bn_nhwc(backend, h, self.conv1, self.bn1, relu=True)
        out = _conv_bn_nhwc(backend, out, self.conv2, self.bn2, relu=False)
        shortcut = (
            _conv_bn_nhwc(backend, h, self.shortcut_conv, self.shortcut_bn, relu=False)
            if self.needs_projection
            else h
        )
        return backend.add_relu_infer(out, shortcut)


class ResNetEncoder(Module):
    """Convolutional encoder producing representation vectors ``h = f(x)``.

    Parameters
    ----------
    in_channels:
        Image channels (3 for the synthetic RGB datasets).
    widths:
        Channel width per stage; the first stage keeps resolution, each
        later stage downsamples by 2.
    blocks_per_stage:
        Number of :class:`BasicBlock` per stage.
    rng:
        Generator used for all weight initialization.
    """

    def __init__(
        self,
        in_channels: int = 3,
        widths: Sequence[int] = (16, 32, 64),
        blocks_per_stage: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not widths:
            raise ValueError("widths must contain at least one stage")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.widths = tuple(int(w) for w in widths)
        self.blocks_per_stage = int(blocks_per_stage)
        self.feature_dim = self.widths[-1]

        self.stem_conv = Conv2d(in_channels, self.widths[0], 3, stride=1, padding=1, rng=rng)
        self.stem_bn = BatchNorm2d(self.widths[0])

        stages = []
        prev = self.widths[0]
        for stage_idx, width in enumerate(self.widths):
            blocks = []
            for block_idx in range(self.blocks_per_stage):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                blocks.append(BasicBlock(prev, width, stride=stride, rng=rng))
                prev = width
            stages.append(Sequential(*blocks))
        self.stages = ModuleList(stages)

    def forward(self, x: Tensor) -> Tensor:
        """Encode an NCHW batch to representation vectors (N, feature_dim).

        Gradient-free eval forwards (scoring, the kNN readout, the
        linear probe's features) run the whole encoder as the active
        backend's channels-last chain: one NHWC repack at entry,
        conv→BN(→ReLU) per layer, and a pooled (N, C) exit — no
        per-layer layout round-trips.  On the reference backend the
        chain is bitwise equal to the module path.

        The chain bounds its own working set: a batch of more than
        :data:`EVAL_BLOCK` images runs as ``ceil(n / EVAL_BLOCK)``
        near-equal blocks (``np.array_split``), so the unfold scratch
        never outgrows one block.  Blocking keeps every byte.  The
        reference chain works one image at a time, so any split gives
        the same result.  The fused backend runs one 2-D GEMM over a
        block's rows, whose bits can follow the row count; balanced
        blocks hold at least ``EVAL_BLOCK / 2`` images, and at every
        size measured they matched the unblocked chain byte for byte
        (a lone last image did not; ``tests/nn/test_eval_blocks.py``).

        All other calls compose the modules (identical autograd math
        on every backend); a training-mode forward normalizes over the
        whole batch, with or without gradients.
        """
        if x.ndim != 4:
            raise ValueError(f"encoder expects NCHW input, got shape {x.shape}")
        if not self.training and not is_grad_enabled():
            backend = get_backend()
            if x.shape[0] <= EVAL_BLOCK:  # every serve batch: skip the split
                return Tensor(self._infer_nhwc_chain(x.data, backend))
            blocks = np.array_split(x.data, -(-x.shape[0] // EVAL_BLOCK))
            return Tensor(
                np.concatenate([self._infer_nhwc_chain(b, backend) for b in blocks])
            )
        out = F.conv_bn_relu(x, self.stem_conv, self.stem_bn)
        for stage in self.stages:
            out = stage(out)
        return F.global_avg_pool2d(out)

    def _infer_nhwc_chain(self, x: np.ndarray, backend: ArrayBackend) -> np.ndarray:
        """The channels-last encoder forward (raw arrays)."""
        x_nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        h = _conv_bn_nhwc(backend, x_nhwc, self.stem_conv, self.stem_bn, relu=True)
        for stage in self.stages:
            for block in stage.layers:
                h = block._infer_nhwc(h, backend)
        return backend.pool_mean_nhwc(h)


@register_encoder("resnet", label="ResNet (config widths)")
def resnet_from_config(
    in_channels: int = 3,
    widths: Sequence[int] = (12, 24, 48),
    blocks_per_stage: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> ResNetEncoder:
    """Config-driven default: widths/depth come from the experiment config."""
    return ResNetEncoder(
        in_channels, widths=tuple(widths), blocks_per_stage=blocks_per_stage, rng=rng
    )


def resnet_mini(
    in_channels: int = 3, rng: Optional[np.random.Generator] = None
) -> ResNetEncoder:
    """Large encoder: 3 stages × 2 blocks, widths (16, 32, 64)."""
    return ResNetEncoder(in_channels, widths=(16, 32, 64), blocks_per_stage=2, rng=rng)


@register_encoder("resnet-small", label="ResNet small (12,24,48)x1")
def resnet_small(
    in_channels: int = 3, rng: Optional[np.random.Generator] = None
) -> ResNetEncoder:
    """Experiment-default encoder: 3 stages × 1 block, widths (12, 24, 48).

    The calibrated CPU-budget operating point: reaches ~80% linear-probe
    accuracy on the cifar10-like stand-in after a few hundred
    contrastive steps, at ~130 ms per training step (batch 32, 12 px).
    """
    return ResNetEncoder(in_channels, widths=(12, 24, 48), blocks_per_stage=1, rng=rng)


@register_encoder("resnet-micro", label="ResNet micro (8,16)x1")
def resnet_micro(
    in_channels: int = 3, rng: Optional[np.random.Generator] = None
) -> ResNetEncoder:
    """Tiny encoder for tests: 2 stages × 1 block, widths (8, 16)."""
    return ResNetEncoder(in_channels, widths=(8, 16), blocks_per_stage=1, rng=rng)
