"""Layer / module abstraction on top of the autograd tensor.

A :class:`Module` owns named :class:`Parameter` tensors and child
modules, discovered by attribute inspection (the same convention as
PyTorch).  Modules carry a ``training`` flag that :class:`BatchNorm2d`
consults to switch between batch statistics and running statistics.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init as init_mod
from repro.nn.tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Identity",
]


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data: np.ndarray, name: Optional[str] = None) -> None:
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter`, :class:`Module`, or
    :class:`ModuleList` instances as attributes; traversal methods
    (:meth:`parameters`, :meth:`state_dict`, ...) discover them by
    inspecting ``__dict__`` in assignment order.
    """

    def __init__(self) -> None:
        self.training = True

    # -- forward ------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal ----------------------------------------------------
    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, ModuleList):
                for i, child in enumerate(value):
                    yield f"{name}.{i}", child

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, ModuleList):
                for i, child in enumerate(value):
                    yield from child.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.parameters())

    # -- buffers (non-trainable state, e.g. BN running stats) ----------
    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        own = getattr(self, "_buffers", {})
        for name, value in own.items():
            yield f"{prefix}{name}", value
        for name, child in self.named_children():
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        if not hasattr(self, "_buffers"):
            self._buffers: Dict[str, np.ndarray] = {}
        self._buffers[name] = value

    def get_buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = value

    # -- train / eval mode ---------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self.named_children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state dict -----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters and buffers as name -> array (copies)."""
        out: Dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            out[name] = p.data.copy()
        for name, b in self.named_buffers():
            out[f"{name}"] = np.asarray(b).copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters/buffers in place; shapes must match exactly."""
        params = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        missing = []
        for name in list(params) + list(buffer_owners):
            if name not in state:
                missing.append(name)
        unexpected = [k for k in state if k not in params and k not in buffer_owners]
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, p in params.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"checkpoint {value.shape} vs model {p.data.shape}"
                )
            p.data = value.copy()
        for name, (owner, local) in buffer_owners.items():
            value = np.asarray(state[name])
            if value.shape != np.asarray(owner._buffers[local]).shape:
                raise ValueError(f"shape mismatch for buffer {name}")
            owner._buffers[local] = value.copy()

    def _buffer_owners(self) -> Dict[str, Tuple["Module", str]]:
        """Map full buffer name -> (owning module, local name)."""
        out: Dict[str, Tuple[Module, str]] = {}

        def visit(module: Module, prefix: str) -> None:
            for name in getattr(module, "_buffers", {}):
                out[f"{prefix}{name}"] = (module, name)
            for name, child in module.named_children():
                visit(child, f"{prefix}{name}.")

        visit(self, "")
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def __repr__(self) -> str:
        children = ", ".join(name for name, _ in self.named_children())
        return f"{type(self).__name__}({children})"


class ModuleList:
    """A plain list of modules that participates in traversal."""

    def __init__(self, modules: Optional[Sequence[Module]] = None) -> None:
        self._modules: List[Module] = list(modules or [])

    def append(self, module: Module) -> None:
        self._modules.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return self._modules[idx]


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = ModuleList(list(modules))

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


class Identity(Module):
    """Pass-through module (handy for optional shortcut paths)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with weight shape (out, in)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Linear dims must be positive, got {in_features} -> {out_features}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_mod.kaiming_uniform((out_features, in_features), rng, gain=1.0)
        )
        self.bias = Parameter(init_mod.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got {x.shape}"
            )
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer (square kernel).

    Forward delegates to :func:`repro.nn.functional.conv2d`, whose
    gradient-free passes unfold into the active backend's workspace, so
    repeated forwards of the same shape stop reallocating their scratch.
    See :mod:`repro.nn.im2col` for the cache invariants and
    :mod:`repro.nn.backend` for the backend surface.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init_mod.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            )
        )
        self.bias = Parameter(init_mod.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel, with running stats.

    In training mode normalizes with batch statistics and updates the
    exponential running mean/variance; in eval mode normalizes with the
    running statistics (so scoring and evaluation are deterministic, a
    requirement of the paper's contrast-score design principle).
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init_mod.ones((num_features,)))
        self.beta = Parameter(init_mod.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d({self.num_features}) got input shape {x.shape}"
            )
        if self.training:
            mean = x.data.mean(axis=(0, 2, 3))
            # The batch, centered once, feeds both the variance (bitwise
            # ``x.var``, which centers on the same mean) and ``x_hat``.
            centered = x.data - mean.reshape(1, -1, 1, 1)
            var = (centered * centered).mean(axis=(0, 2, 3))
            n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            # Unbiased variance for the running estimate (PyTorch convention).
            unbiased = var * n / max(n - 1, 1)
            self._buffers["running_mean"] = (
                (1 - self.momentum) * self._buffers["running_mean"]
                + self.momentum * mean
            ).astype(np.float32)
            self._buffers["running_var"] = (
                (1 - self.momentum) * self._buffers["running_var"]
                + self.momentum * unbiased
            ).astype(np.float32)
            return self._normalize_train(x, centered, var)
        return self._normalize_eval(x)

    def _normalize_train(self, x: Tensor, centered: np.ndarray, var: np.ndarray) -> Tensor:
        """Batch-stat normalization of the centered batch with the full BN backward."""
        from repro.nn.functional import _make_op  # local import avoids cycle at load

        eps = self.eps
        v = var.reshape(1, -1, 1, 1)
        inv_std = 1.0 / np.sqrt(v + eps)
        x_hat = centered * inv_std
        gamma, beta = self.gamma, self.beta
        out = x_hat * gamma.data.reshape(1, -1, 1, 1) + beta.data.reshape(1, -1, 1, 1)
        n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]

        def backward(g: np.ndarray):
            gx = ggamma = gbeta = None
            g_hat = g * gamma.data.reshape(1, -1, 1, 1)
            if x.requires_grad:
                sum_g = g_hat.sum(axis=(0, 2, 3), keepdims=True)
                sum_gx = (g_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
                gx = inv_std / n * (n * g_hat - sum_g - x_hat * sum_gx)
            if gamma.requires_grad:
                ggamma = (g * x_hat).sum(axis=(0, 2, 3))
            if beta.requires_grad:
                gbeta = g.sum(axis=(0, 2, 3))
            return (gx, ggamma, gbeta)

        return _make_op(
            out.astype(x.data.dtype, copy=False), (x, gamma, beta), backward
        )

    def _normalize_eval(self, x: Tensor) -> Tensor:
        """Running-stat normalization, ``x * scale + shift`` with the
        affine of :func:`repro.nn.functional.bn_eval_affine` (the
        channels-last chains use the same vectors)."""
        from repro.nn.functional import _make_op, bn_eval_affine
        from repro.nn.tensor import is_grad_enabled

        scale, shift = (v.reshape(1, -1, 1, 1) for v in bn_eval_affine(self))
        mean = self._buffers["running_mean"].reshape(1, -1, 1, 1)
        var = self._buffers["running_var"].reshape(1, -1, 1, 1)
        eps = self.eps
        gamma, beta = self.gamma, self.beta
        out = x.data * scale + shift

        def normalized() -> np.ndarray:
            return (x.data - mean) * (1.0 / np.sqrt(var + eps))

        # The normalized input only feeds the gamma gradient — don't pay
        # the extra full-map pass on gradient-free (scoring/eval) calls.
        # The backward recomputes it on demand, so a gamma whose
        # requires_grad flips between forward and backward still gets a
        # correct gradient.
        x_hat_const = normalized() if is_grad_enabled() and gamma.requires_grad else None

        def backward(g: np.ndarray):
            gx = g * scale if x.requires_grad else None
            ggamma = None
            if gamma.requires_grad:
                x_hat = x_hat_const if x_hat_const is not None else normalized()
                ggamma = (g * x_hat).sum(axis=(0, 2, 3))
            gbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
            return (gx, ggamma, gbeta)

        return _make_op(out.astype(x.data.dtype, copy=False), (x, gamma, beta), backward)


class ReLU(Module):
    """ReLU activation as a module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten()


class MaxPool2d(Module):
    """Non-overlapping max pooling."""

    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel)


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel)


class GlobalAvgPool2d(Module):
    """Global average pooling to (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)
