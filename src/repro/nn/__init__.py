"""Neural-network substrate: autograd tensors, the layers the ResNet
encoder and projection head are built from, Adam, and the NT-Xent and
cross-entropy losses — the numpy stand-in for the paper's PyTorch stack.

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
    BatchNorm2d,
    Conv2d,
    Identity,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Sequential,
)
from repro.nn.resnet import BasicBlock, ResNetEncoder, resnet_micro, resnet_mini, resnet_small
from repro.nn.projection import ProjectionHead
from repro.nn.optim import Adam, Optimizer, sqrt_batch_lr_scale
from repro.nn.losses import NTXentLoss, cross_entropy, nt_xent_loss
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
    "Identity",
    "BasicBlock",
    "ResNetEncoder",
    "resnet_mini",
    "resnet_small",
    "resnet_micro",
    "ProjectionHead",
    "Optimizer",
    "Adam",
    "sqrt_batch_lr_scale",
    "NTXentLoss",
    "nt_xent_loss",
    "cross_entropy",
    "load_module",
    "load_state",
    "save_module",
    "save_state",
]
