"""Reverse-mode automatic differentiation on numpy arrays.

This module is the computational substrate for the whole reproduction:
the paper's framework only interacts with the model through forward
passes and gradients, so a correct, vectorized autograd engine on numpy
stands in for PyTorch.

Design
------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (``data``).  Only a
  *leaf* with ``requires_grad`` set — a tensor no op produced, such as
  a parameter or an input created with ``requires_grad=True`` —
  accumulates a gradient of the same shape in ``grad`` during
  :meth:`Tensor.backward`.  Intermediate results pass their gradient on
  to their inputs and keep ``grad`` as ``None``, as in PyTorch, so a
  backward pass holds no activation-sized gradient per op.
* Every differentiable operation builds a new ``Tensor`` holding a
  closure (``_backward``) that routes the output gradient to the
  operation's inputs.  ``backward()`` topologically sorts the graph and
  runs the closures in reverse.
* Broadcasting follows numpy semantics; gradients of broadcast operands
  are reduced back to the operand's shape by :func:`unbroadcast`.
* Gradients are plain numpy arrays (no higher-order differentiation);
  this matches how the paper's training loops use gradients.
* Forward and backward compute call numpy directly: autograd math
  must be bitwise reproducible across backends (the cross-backend
  training-determinism invariant), so no backend has anything to
  change there.  Two ops consult the active
  :class:`~repro.nn.backend.base.ArrayBackend`:
  :meth:`Tensor.__matmul__`, whose forward and backward GEMMs route
  through ``backend.matmul`` so a BLAS-swapping backend accelerates
  training too, and a gradient-free :meth:`Tensor.relu`, which takes
  the backend's single-pass rectification.

The engine is deliberately small but complete enough for ResNets with
batch normalization and the NT-Xent contrastive loss.  Convolution and
pooling live in :mod:`repro.nn.functional` and plug into this graph via
the same closure mechanism.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.backend.base import get_backend

__all__ = ["Tensor", "unbroadcast", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Module-level switch consulted by every op; `no_grad()` flips it.
_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction.

    Inside the context, ops produce plain ``requires_grad=False``
    tensors with no backward closures — used for scoring, evaluation,
    and running-statistics updates where gradients are not needed.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Whether ops currently record backward closures."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over axes that were added or expanded by numpy broadcasting so
    the returned array has exactly ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes numpy added on the left.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original and expanded.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype: np.dtype) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    return arr


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array (or array-like) payload.  Stored as ``float32`` by default;
        pass an explicit numpy array to keep another float dtype (the
        test-suite uses ``float64`` for finite-difference checks).
    requires_grad:
        Whether gradients flow to this tensor during :meth:`backward`.
        A leaf (a tensor no op produced) accumulates them into
        :attr:`grad`; a result of an op routes them to its inputs and
        its :attr:`grad` stays ``None``, as in PyTorch.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            raise TypeError("wrapping a Tensor in a Tensor is almost always a bug")
        # Preserve float dtypes of arrays AND numpy scalars (numpy 2 returns
        # np.float64 scalars from 0-d array ops); everything else -> float32.
        if isinstance(data, (np.ndarray, np.generic)) and np.issubdtype(
            np.asarray(data).dtype, np.floating
        ):
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        """The scalar payload of a 1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item()

    def detach(self) -> "Tensor":
        """A view of the same data cut out of the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """A deep copy cut out of the autograd graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike], dtype: np.dtype) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(_as_array(value, dtype))

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents)
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into a leaf's ``self.grad``, allocating on first use."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (i.e. ``d self / d self``); for
        non-scalar outputs an explicit seed gradient is usually what you
        want.  Gradients accumulate into the ``grad`` of the leaves the
        graph reaches; no op result, this tensor included, gets one.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without a seed gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
            )

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    def _topological_order(self) -> List["Tensor"]:
        """Nodes reachable from ``self``, outputs-first (reverse topo)."""
        order: List[Tensor] = []
        visited: set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        a, b = self, other
        data = a.data + b.data

        def backward(g: np.ndarray):
            return (unbroadcast(g, a.data.shape), unbroadcast(g, b.data.shape))

        return self._make(data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self
        return self._make(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-Tensor._lift(other, self.data.dtype))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._lift(other, self.data.dtype) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        a, b = self, other
        data = a.data * b.data

        def backward(g: np.ndarray):
            ga = unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
            gb = unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
            return (ga, gb)

        return self._make(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        a, b = self, other
        data = a.data / b.data

        def backward(g: np.ndarray):
            ga = unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
            gb = (
                unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if b.requires_grad
                else None
            )
            return (ga, gb)

        return self._make(data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor._lift(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self
        data = a.data**exponent

        def backward(g: np.ndarray):
            return (g * exponent * a.data ** (exponent - 1),)

        return self._make(data, (a,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        a, b = self, other
        backend = get_backend()
        data = backend.matmul(a.data, b.data)

        def backward(g: np.ndarray):
            # Promote 1-D operands to 2-D (numpy matmul semantics), compute
            # matrix gradients, then reduce/reshape back.
            a_d, b_d = a.data, b.data
            a2 = a_d[None, :] if a_d.ndim == 1 else a_d
            b2 = b_d[:, None] if b_d.ndim == 1 else b_d
            g2 = g
            if a_d.ndim == 1:
                g2 = np.expand_dims(g2, -2)
            if b_d.ndim == 1:
                g2 = np.expand_dims(g2, -1)
            ga = gb = None
            if a.requires_grad:
                ga = backend.matmul(g2, np.swapaxes(b2, -1, -2))
                ga = unbroadcast(ga, a2.shape).reshape(a_d.shape)
            if b.requires_grad:
                gb = backend.matmul(np.swapaxes(a2, -1, -2), g2)
                gb = unbroadcast(gb, b2.shape).reshape(b_d.shape)
            return (ga, gb)

        return self._make(data, (a, b), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)
        return self._make(data, (a,), lambda g: (g * data,))

    def log(self) -> "Tensor":
        a = self
        return self._make(np.log(a.data), (a,), lambda g: (g / a.data,))

    def sqrt(self) -> "Tensor":
        a = self
        data = np.sqrt(a.data)
        return self._make(data, (a,), lambda g: (g * 0.5 / data,))

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(a.data)
        return self._make(data, (a,), lambda g: (g * (1.0 - data * data),))

    def sigmoid(self) -> "Tensor":
        a = self
        data = 1.0 / (1.0 + np.exp(-a.data))
        return self._make(data, (a,), lambda g: (g * data * (1.0 - data),))

    def relu(self) -> "Tensor":
        a = self
        if not (_GRAD_ENABLED and a.requires_grad):
            # Gradient-free: no mask to retain, let the backend pick the
            # cheapest single-pass rectification.
            return Tensor(get_backend().relu(a.data))
        mask = a.data > 0
        data = np.where(mask, a.data, 0.0).astype(a.data.dtype, copy=False)
        return self._make(data, (a,), lambda g: (g * mask,))

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)
        return self._make(np.abs(a.data), (a,), lambda g: (g * sign,))

    def maximum(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        a, b = self, other
        take_a = a.data >= b.data
        data = np.where(take_a, a.data, b.data)

        def backward(g: np.ndarray):
            ga = unbroadcast(g * take_a, a.data.shape) if a.requires_grad else None
            gb = unbroadcast(g * ~take_a, b.data.shape) if b.requires_grad else None
            return (ga, gb)

        return self._make(data, (a, b), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        a = self
        data = np.clip(a.data, low, high)
        mask = (a.data >= low) & (a.data <= high)
        return self._make(data, (a,), lambda g: (g * mask,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(
        self, axis: Union[int, Tuple[int, ...], None] = None, keepdims: bool = False
    ) -> "Tensor":
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            return (_expand_reduced(g, a.data.shape, axis, keepdims),)

        return self._make(np.asarray(data, dtype=a.data.dtype), (a,), backward)

    def mean(
        self, axis: Union[int, Tuple[int, ...], None] = None, keepdims: bool = False
    ) -> "Tensor":
        a = self
        count = _reduced_count(a.data.shape, axis)
        data = a.data.mean(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            return (_expand_reduced(g, a.data.shape, axis, keepdims) / count,)

        return self._make(np.asarray(data, dtype=a.data.dtype), (a,), backward)

    def max(
        self, axis: Union[int, None] = None, keepdims: bool = False
    ) -> "Tensor":
        a = self
        data = a.data.max(axis=axis, keepdims=keepdims)
        # Ties split gradient equally, matching numpy-style subgradient.
        expanded = (
            data if keepdims or axis is None else np.expand_dims(data, axis)
        )
        mask = (a.data == expanded).astype(a.data.dtype)
        mask_sum = mask.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray):
            g_exp = _expand_reduced(g, a.data.shape, axis, keepdims)
            return (g_exp * mask / mask_sum,)

        return self._make(np.asarray(data, dtype=a.data.dtype), (a,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        data = a.data.reshape(shape)
        return self._make(data, (a,), lambda g: (g.reshape(a.data.shape),))

    def flatten(self, start_axis: int = 1) -> "Tensor":
        """Flatten all axes from ``start_axis`` onward (batch-preserving)."""
        lead = self.data.shape[:start_axis]
        return self.reshape(*lead, -1)

    def transpose(self, *axes: int) -> "Tensor":
        a = self
        if not axes:
            axes = tuple(reversed(range(a.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        data = a.data.transpose(axes)
        return self._make(data, (a,), lambda g: (g.transpose(inverse),))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        a = self
        data = a.data[index]

        def backward(g: np.ndarray):
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            return (full,)

        return self._make(data, (a,), backward)

    # ------------------------------------------------------------------
    # Comparison (non-differentiable, returns numpy)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, dtype: np.dtype = np.float32, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, dtype: np.dtype = np.float32, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient routing."""
        tensors = list(tensors)
        if not tensors:
            raise ValueError("concat of an empty sequence")
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray):
            grads = []
            for i, t in enumerate(tensors):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[i], offsets[i + 1])
                grads.append(g[tuple(sl)])
            return tuple(grads)

        requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
        out = Tensor(data, requires_grad=requires, _parents=tuple(tensors))
        if requires:
            out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis with gradient routing."""
        tensors = list(tensors)
        if not tensors:
            raise ValueError("stack of an empty sequence")
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g: np.ndarray):
            pieces = np.split(g, len(tensors), axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in pieces)

        requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
        out = Tensor(data, requires_grad=requires, _parents=tuple(tensors))
        if requires:
            out._backward = backward
        return out


def _raise_item() -> float:
    raise ValueError("item() requires a single-element tensor")


def _reduced_count(shape: Tuple[int, ...], axis) -> float:
    if axis is None:
        return float(np.prod(shape)) if shape else 1.0
    if isinstance(axis, int):
        axis = (axis,)
    return float(np.prod([shape[a] for a in axis]))


def _expand_reduced(
    grad: np.ndarray, shape: Tuple[int, ...], axis, keepdims: bool
) -> np.ndarray:
    """Broadcast a reduction's output-gradient back to the input shape."""
    grad = np.asarray(grad)
    if axis is None:
        if not keepdims:
            grad = grad.reshape((1,) * len(shape))
        return np.broadcast_to(grad, shape).copy()
    if isinstance(axis, int):
        axis = (axis,)
    if not keepdims:
        for a in sorted(a % len(shape) for a in axis):
            grad = np.expand_dims(grad, a)
    return np.broadcast_to(grad, shape).copy()
