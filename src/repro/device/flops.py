"""FLOP counting for the nn substrate.

Walks a module tree and accounts multiply-accumulate operations for the
layers used by the reproduction (conv, linear, batch-norm, pooling,
residual adds).  Used by the on-device cost model to quantify the
compute overhead of contrast scoring and the savings of lazy scoring —
the analytic companion to the paper's measured Table I.

Conventions: one multiply-accumulate = 2 FLOPs; batch-norm and ReLU are
counted as one FLOP per element (inference form).
"""

from __future__ import annotations

from typing import Tuple

from repro.nn.im2col import conv_output_size
from repro.nn.layers import BatchNorm2d, Conv2d, Identity, Linear, Module, Sequential
from repro.nn.projection import ProjectionHead
from repro.nn.resnet import BasicBlock, ResNetEncoder

__all__ = ["count_forward_flops", "training_step_flops"]


def _conv_flops(layer: Conv2d, in_hw: Tuple[int, int]) -> Tuple[float, Tuple[int, int]]:
    h, w = in_hw
    out_h = conv_output_size(h, layer.kernel_size, layer.stride, layer.padding)
    out_w = conv_output_size(w, layer.kernel_size, layer.stride, layer.padding)
    macs = (
        layer.out_channels
        * out_h
        * out_w
        * layer.in_channels
        * layer.kernel_size
        * layer.kernel_size
    )
    flops = 2.0 * macs
    if layer.bias is not None:
        flops += layer.out_channels * out_h * out_w
    return flops, (out_h, out_w)


def _linear_flops(layer: Linear) -> float:
    flops = 2.0 * layer.in_features * layer.out_features
    if layer.bias is not None:
        flops += layer.out_features
    return flops


def _block_flops(block: BasicBlock, in_hw: Tuple[int, int], channels: int):
    total, hw = _conv_flops(block.conv1, in_hw)
    total += block.bn1.num_features * hw[0] * hw[1]  # bn1
    total += block.bn1.num_features * hw[0] * hw[1]  # relu
    conv2_flops, hw = _conv_flops(block.conv2, hw)
    total += conv2_flops
    total += block.bn2.num_features * hw[0] * hw[1]  # bn2
    if block.needs_projection:
        sc_flops, _ = _conv_flops(block.shortcut_conv, in_hw)
        total += sc_flops
        total += block.shortcut_bn.num_features * hw[0] * hw[1]
    total += block.bn2.num_features * hw[0] * hw[1]  # residual add
    total += block.bn2.num_features * hw[0] * hw[1]  # final relu
    return total, hw


def count_forward_flops(
    module: Module, image_size: int, batch_size: int = 1
) -> float:
    """Forward-pass FLOPs of an encoder / projection head / composition.

    Parameters
    ----------
    module: a :class:`ResNetEncoder`, :class:`ProjectionHead`,
        :class:`BasicBlock`, or one of the primitive layers.
    image_size: square input resolution (ignored for pure MLP heads).
    batch_size: scales the count linearly.
    """
    if isinstance(module, ResNetEncoder):
        total = 0.0
        hw = (image_size, image_size)
        flops, hw = _conv_flops(module.stem_conv, hw)
        total += flops
        total += 3 * module.stem_bn.num_features * hw[0] * hw[1]  # bn + relu + slack
        channels = module.widths[0]
        for stage in module.stages:
            for block in stage.layers:
                flops, hw = _block_flops(block, hw, channels)
                total += flops
        total += module.feature_dim * hw[0] * hw[1]  # global average pool
        return total * batch_size
    if isinstance(module, ProjectionHead):
        total = _linear_flops(module.fc1) + _linear_flops(module.fc2)
        total += module.fc1.out_features  # relu
        if module.normalize:
            total += 3 * module.out_dim  # square, sum, divide
        return total * batch_size
    if isinstance(module, BasicBlock):
        flops, _ = _block_flops(module, (image_size, image_size), module.conv1.in_channels)
        return flops * batch_size
    if isinstance(module, Conv2d):
        flops, _ = _conv_flops(module, (image_size, image_size))
        return flops * batch_size
    if isinstance(module, Linear):
        return _linear_flops(module) * batch_size
    if isinstance(module, BatchNorm2d):
        return module.num_features * image_size * image_size * batch_size
    if isinstance(module, Sequential):
        # only valid for spatially-preserving members; callers should prefer
        # the typed branches above.
        return sum(
            count_forward_flops(child, image_size, batch_size)
            for child in module.layers
        )
    if isinstance(module, Identity):
        return 0.0
    raise TypeError(f"FLOP counting not implemented for {type(module).__name__}")


def training_step_flops(
    encoder: ResNetEncoder,
    projector: ProjectionHead,
    image_size: int,
    batch_size: int,
) -> float:
    """FLOPs of one contrastive training step (two views, fwd + bwd).

    Uses the standard backward ≈ 2× forward approximation, so one
    training step on N pairs costs ≈ 3 forwards on 2N images.
    """
    forward = count_forward_flops(encoder, image_size, batch_size) + count_forward_flops(
        projector, image_size, batch_size
    )
    return 3.0 * 2.0 * forward
