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
* Every differentiable operation links its result to its inputs
  through a :class:`_Node`: the closure (``_backward``) that routes the
  output gradient, and the inputs' nodes (``None`` for an input that
  needs no gradient; a leaf is its own node).  So the graph holds
  leaves but no op result, and arrays only where a closure reads them
  (a conv's columns, a ReLU's mask); a closure that needs only an
  input's shape or ``requires_grad`` flag captures that value, never
  the input.  An activation backward does not read dies with the
  forward that moves past it.
* ``backward()`` runs the closures in reverse topological order and
  releases each node once it has routed its gradients (closure and
  parent links dropped, PyTorch's ``retain_graph=False``), so a second
  ``backward()`` that reaches a released node raises ``RuntimeError``.
* Allocator policy: the first ``backward()`` of a process frees one
  16 MiB array.  Under glibc that raises malloc's dynamic mmap and trim
  thresholds (mallopt(3)), so the next step reuses the heap a step
  frees instead of faulting it back in (thousands of minor faults per
  step); elsewhere it does nothing.  Only training pays it: done at
  import, it would grow the serve server too.
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
the same :func:`_make` constructor.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.backend.base import get_backend

__all__ = ["Tensor", "unbroadcast", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Module-level switch consulted by every op; `no_grad()` flips it.
_GRAD_ENABLED = True


@functools.lru_cache(maxsize=None)
def _raise_malloc_thresholds() -> None:
    """Free one mmapped 16 MiB block, once per process: glibc raises its
    mmap threshold to that size (at most 32 MiB) and its trim threshold
    to twice that (see the module docstring)."""
    block = np.empty(16 << 20, dtype=np.uint8)
    del block


#: The closure of a node an earlier ``backward()`` released.
_RELEASED = object()


class _Node:
    """One op in the autograd graph: the closure that routes the output
    gradient, and the inputs' nodes (``None`` for an input that needs no
    gradient; a leaf tensor is its own node)."""

    __slots__ = ("_backward", "_parents")

    def __init__(self, backward: Callable, parents: tuple) -> None:
        self._backward = backward
        self._parents = parents


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


def _float_array(data: ArrayLike) -> np.ndarray:
    """Float arrays and numpy float scalars (numpy 2 returns np.float64
    scalars from 0-d array ops) keep their dtype; the rest is float32."""
    if isinstance(data, (np.ndarray, np.generic)) and np.issubdtype(
        np.asarray(data).dtype, np.floating
    ):
        return np.asarray(data)
    return np.asarray(data, dtype=np.float32)


def _make(
    data: ArrayLike, parents: Sequence["Tensor"], backward: Callable
) -> "Tensor":
    """An op's result, with a :class:`_Node` when grad mode is on and an
    input requires grad: every op builds its result here, not through
    ``__init__``'s checks."""
    node = None
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                node = _Node(
                    backward,
                    tuple((q._node or q) if q.requires_grad else None for q in parents),
                )
                break
    if type(data) is not np.ndarray or data.dtype.kind != "f":
        data = _float_array(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = node is not None
    out._node = node
    out.name = None
    return out


def _topological_order(root) -> list:
    """Nodes reachable from ``root``, outputs first (reverse topo);
    raises before any gradient moves if one was released."""
    order = []
    visited: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _RELEASED:
            raise RuntimeError(
                "backward() reached a node an earlier backward() released; "
                "run the forward again"
            )
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent is not None and id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


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

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    # A leaf is its own graph node (a node cached on the leaf and holding
    # it would be a reference cycle, freed only by the cyclic collector).
    _backward = None
    _parents: tuple = ()

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            raise TypeError("wrapping a Tensor in a Tensor is almost always a bug")
        self.data = _float_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._node: Optional[_Node] = None
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

    def item(self) -> float:
        """The scalar payload of a 1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item()

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
        The pass releases the graph: a second call that reaches a node
        it ran raises ``RuntimeError``.
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

        _raise_malloc_thresholds()
        root = self._node or self
        order = _topological_order(root)
        grads: dict[int, np.ndarray] = {id(root): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            closure = node._backward
            if closure is None:
                node._accumulate(node_grad)
                continue
            parents = node._parents
            node._backward, node._parents = _RELEASED, ()
            for parent, pgrad in zip(parents, closure(node_grad)):
                if pgrad is None or parent is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        a_shape, b_shape = self.data.shape, other.data.shape
        data = self.data + other.data

        def backward(g: np.ndarray):
            return (unbroadcast(g, a_shape), unbroadcast(g, b_shape))

        return _make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self
        return _make(-a.data, (a,), lambda g: (-g,))

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

        return _make(data, (a, b), backward)

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

        return _make(data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor._lift(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self
        data = a.data**exponent

        def backward(g: np.ndarray):
            return (g * exponent * a.data ** (exponent - 1),)

        return _make(data, (a,), backward)

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

        return _make(data, (a, b), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)
        return _make(data, (a,), lambda g: (g * data,))

    def log(self) -> "Tensor":
        a = self
        return _make(np.log(a.data), (a,), lambda g: (g / a.data,))

    def sqrt(self) -> "Tensor":
        a = self
        data = np.sqrt(a.data)
        return _make(data, (a,), lambda g: (g * 0.5 / data,))

    def relu(self) -> "Tensor":
        a = self
        if not (_GRAD_ENABLED and a.requires_grad):
            # Gradient-free: no mask to retain, let the backend pick the
            # cheapest single-pass rectification.
            return Tensor(get_backend().relu(a.data))
        mask = a.data > 0
        data = np.where(mask, a.data, 0.0).astype(a.data.dtype, copy=False)
        return _make(data, (a,), lambda g: (g * mask,))

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)
        return _make(np.abs(a.data), (a,), lambda g: (g * sign,))

    def maximum(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        a, b = self, other
        take_a = a.data >= b.data
        data = np.where(take_a, a.data, b.data)

        def backward(g: np.ndarray):
            ga = unbroadcast(g * take_a, a.data.shape) if a.requires_grad else None
            gb = unbroadcast(g * ~take_a, b.data.shape) if b.requires_grad else None
            return (ga, gb)

        return _make(data, (a, b), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        a = self
        data = np.clip(a.data, low, high)
        mask = (a.data >= low) & (a.data <= high)
        return _make(data, (a,), lambda g: (g * mask,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(
        self, axis: Union[int, Tuple[int, ...], None] = None, keepdims: bool = False
    ) -> "Tensor":
        shape = self.data.shape
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            return (_expand_reduced(g, shape, axis, keepdims),)

        return _make(np.asarray(data, dtype=self.data.dtype), (self,), backward)

    def mean(
        self, axis: Union[int, Tuple[int, ...], None] = None, keepdims: bool = False
    ) -> "Tensor":
        shape = self.data.shape
        count = _reduced_count(shape, axis)
        data = self.data.mean(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            return (_expand_reduced(g, shape, axis, keepdims) / count,)

        return _make(np.asarray(data, dtype=self.data.dtype), (self,), backward)

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

        return _make(np.asarray(data, dtype=a.data.dtype), (a,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.data.shape
        data = self.data.reshape(shape)
        return _make(data, (self,), lambda g: (g.reshape(old_shape),))

    def transpose(self, *axes: int) -> "Tensor":
        a = self
        if not axes:
            axes = tuple(reversed(range(a.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        data = a.data.transpose(axes)
        return _make(data, (a,), lambda g: (g.transpose(inverse),))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        shape, dtype = self.data.shape, self.data.dtype
        data = self.data[index]

        def backward(g: np.ndarray):
            full = np.zeros(shape, dtype)
            np.add.at(full, index, g)
            return (full,)

        return _make(data, (self,), backward)

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
            for i in range(len(sizes)):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[i], offsets[i + 1])
                grads.append(g[tuple(sl)])
            return tuple(grads)

        return _make(data, tensors, backward)


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
