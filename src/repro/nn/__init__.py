"""Neural-network substrate: autograd tensors, layers, ResNet encoder,
optimizers, and losses — the numpy stand-in for the paper's PyTorch stack.

Convolution unfolds, GEMMs and eval forwards run on a pluggable array
backend (:mod:`repro.nn.backend`): ``numpy`` is the reference, ``fused``
the buffer-reusing, conv→BN→ReLU-fusing inference engine.
"""

from repro.nn.backend import (
    ArrayBackend,
    get_backend,
    set_backend,
    use_backend,
)
from repro.nn.tensor import Tensor, no_grad
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.resnet import BasicBlock, ResNetEncoder, resnet_micro, resnet_mini, resnet_small
from repro.nn.projection import ProjectionHead
from repro.nn.optim import SGD, Adam, Optimizer, sqrt_batch_lr_scale
from repro.nn.schedulers import (
    ConstantLR,
    CosineDecayLR,
    LRScheduler,
    StepDecayLR,
    WarmupCosineLR,
)
from repro.nn.losses import CrossEntropyLoss, NTXentLoss, cross_entropy, nt_xent_loss
from repro.nn.serialization import load_module, load_state, save_module, save_state

__all__ = [
    "Tensor",
    "no_grad",
    "ArrayBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Identity",
    "BasicBlock",
    "ResNetEncoder",
    "resnet_mini",
    "resnet_small",
    "resnet_micro",
    "ProjectionHead",
    "Optimizer",
    "SGD",
    "Adam",
    "sqrt_batch_lr_scale",
    "LRScheduler",
    "ConstantLR",
    "StepDecayLR",
    "CosineDecayLR",
    "WarmupCosineLR",
    "NTXentLoss",
    "nt_xent_loss",
    "CrossEntropyLoss",
    "cross_entropy",
    "load_module",
    "load_state",
    "save_module",
    "save_state",
]
