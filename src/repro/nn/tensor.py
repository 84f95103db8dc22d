"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate, which replaces
PyTorch in this reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and
records the operations applied to it so that :meth:`Tensor.backward` can
propagate gradients through the computation graph.

The design follows the familiar define-by-run model: every operation creates a
new :class:`Tensor` whose ``_backward`` closure knows how to route the incoming
gradient to the parents.  Only float arrays participate in differentiation;
integer arrays (e.g. index tensors) can be wrapped but never require gradients.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_DEFAULT_DTYPE = np.float64

#: When disabled, ops skip graph construction entirely: outputs are plain
#: tensors with no parents or backward closures, regardless of the inputs'
#: ``requires_grad``.  The numbers computed are bit-for-bit identical to the
#: tracking path (same operations in the same order); only the bookkeeping is
#: dropped.  Rollout collection and serving flip this off — they never call
#: ``backward()`` — which removes the per-op closure/parent allocation that
#: dominates small-tensor forwards.  The flag is THREAD-LOCAL: the serving
#: layer runs inference from several threads concurrently with nothing else,
#: but a process may also train on one thread while another serves — a
#: process-global flag would let interleaved enter/exit pairs strand autograd
#: off for everyone.
_grad_state = threading.local()


def grad_enabled() -> bool:
    """Whether new ops record the autograd graph (per thread)."""
    return getattr(_grad_state, "enabled", True)


class no_grad:
    """Context manager disabling autograd graph recording (inference mode)."""

    def __enter__(self):
        self._previous = grad_enabled()
        _grad_state.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_state.enabled = self._previous
        return False


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a numpy array with a float dtype by default."""
    if isinstance(value, Tensor):
        raise TypeError("expected raw array-like, got Tensor")
    arr = np.asarray(value)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype.kind in ("i", "u", "b"):
        return arr.astype(_DEFAULT_DTYPE)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, reversing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that supports reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        # A float ndarray (what every op produces) is taken as-is.
        self.data = (
            data if type(data) is np.ndarray and data.dtype.kind == "f" else _as_array(data)
        )
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._backward = backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
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
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(()))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    def _operand(self, value: Union["Tensor", ArrayLike]) -> "Tensor":
        """The other operand of a binary op: a scalar takes this tensor's float
        dtype, so a float32 tensor stays float32 (a 0-d float64 array would
        promote it)."""
        if isinstance(value, Tensor):
            return value
        array = np.asarray(value)
        if array.ndim == 0 and self.data.dtype.kind == "f":
            return Tensor(array.astype(self.data.dtype))
        return Tensor(array)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if not grad_enabled() or not any(p.requires_grad for p in parents):
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        # Zero-copy: the first gradient is stored as-is (it may alias a
        # child's gradient or a broadcast view).  This is safe because stored
        # gradients are never mutated in place — accumulation and clipping
        # both reassign (`self.grad = self.grad + grad`,
        # `Optimizer.clip_gradients`) — and it avoids one full-size copy per
        # graph node, which dominated backward time on the batched attention
        # graphs (hundreds of multi-MB score arrays).
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate through the graph rooted at this tensor."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order = self._topological_order()
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> list:
        order: list = []
        visited = set()
        stack = [(self, False)]
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
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(out_data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._operand(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._operand(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Comparison (non-differentiable, returns raw arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------ #
    # Matrix multiplication
    # ------------------------------------------------------------------ #
    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad) if other.data.ndim == 2 else self.data * grad
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_other, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        # Basic indices (ints/slices/ellipsis) select each element at most
        # once, so the gradient can be written with a direct (fast) in-place
        # add; only advanced indices with possible duplicates need the much
        # slower element-wise np.add.at scatter.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(
            isinstance(part, (int, np.integer, slice, type(Ellipsis), type(None)))
            for part in parts
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    full[index] += grad
                else:
                    np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return self._make(out_data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = out_data
            g = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(expanded, axis=axis)
                g = np.expand_dims(g, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * g / counts)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0.0))

        return self._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self._accumulate(grad * inside)

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return self._make(out_data, (self,), backward)


# ---------------------------------------------------------------------- #
# Free-standing constructors and graph-level ops
# ---------------------------------------------------------------------- #
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

    if not grad_enabled() or not any(t.requires_grad for t in tensors):
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, parents=tuple(tensors), backward=backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(moved[i])

    if not grad_enabled() or not any(t.requires_grad for t in tensors):
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, parents=tuple(tensors), backward=backward)


def where(condition: np.ndarray, a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Differentiable ``numpy.where`` over two tensors (condition is constant)."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    cond = np.asarray(condition)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * cond)
        if b.requires_grad:
            b._accumulate(grad * (~cond if cond.dtype == bool else 1.0 - cond))

    if not grad_enabled() or not (a.requires_grad or b.requires_grad):
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, parents=(a, b), backward=backward)
