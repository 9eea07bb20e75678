"""The :class:`Tensor` — a NumPy array with reverse-mode autograd.

Design notes (see the HPC-Python guides):

- all arithmetic stays vectorized in NumPy; the graph only stores closures,
  never Python-level elementwise loops;
- gradients of broadcast ops are reduced back with :func:`unbroadcast`
  (sum over broadcast axes) so arbitrary NumPy broadcasting "just works";
- expensive composite ops (conv, batchnorm, softmax, pooling) are implemented
  as single graph nodes with hand-written backwards in
  :mod:`repro.nn.functional` instead of chains of primitives — this keeps
  graphs shallow and the backward pass cache-friendly.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn import autograd

__all__ = ["Tensor", "unbroadcast"]

DEFAULT_DTYPE = np.float32

BackwardFn = Callable[[np.ndarray], Sequence[np.ndarray | None]]


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shaped like a broadcast result) back to ``shape``.

    Sums over leading axes added by broadcasting and over axes where the
    original dimension was 1.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype == np.float64:
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """A multidimensional array tracking its gradient.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts. Floating data defaults to
        ``float32`` (float64 inputs are downcast, matching the fp32 payload
        accounting the paper's communication tables assume).
    requires_grad:
        Whether :func:`Tensor.backward` should populate ``.grad``.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward_fn",
        "_parents",
        "_is_leaf",
        "_retains_grad",
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward_fn: BackwardFn | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._is_leaf = True
        self._retains_grad = False

    # ------------------------------------------------------------------ #
    # graph construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: BackwardFn,
    ) -> "Tensor":
        """Build a graph node. Called by every differentiable op."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._retains_grad = False
        if autograd.is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._backward_fn = backward_fn
            out._parents = parents
            out._is_leaf = False
        else:
            out.requires_grad = False
            out._backward_fn = None
            out._parents = ()
            out._is_leaf = True
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (see :func:`repro.nn.autograd.backward`)."""
        autograd.backward(self, grad)

    def retain_grad(self) -> "Tensor":
        """Keep ``.grad`` for this non-leaf tensor during backward."""
        self._retains_grad = True
        return self

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a view sharing data but cut from the graph."""
        return Tensor(self.data)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
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

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    def _item_err(self):
        raise ValueError(f"item() on tensor of size {self.size}")

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad})"

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        out = a.data + b.data

        def bwd(g):
            return unbroadcast(g, a.data.shape), unbroadcast(g, b.data.shape)

        return Tensor._make(out, (a, b), bwd)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        out = a.data - b.data

        def bwd(g):
            return unbroadcast(g, a.data.shape), unbroadcast(-g, b.data.shape)

        return Tensor._make(out, (a, b), bwd)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        out = a.data * b.data

        def bwd(g):
            return (
                unbroadcast(g * b.data, a.data.shape),
                unbroadcast(g * a.data, b.data.shape),
            )

        return Tensor._make(out, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        out = a.data / b.data

        def bwd(g):
            ga = g / b.data
            gb = -g * a.data / (b.data * b.data)
            return unbroadcast(ga, a.data.shape), unbroadcast(gb, b.data.shape)

        return Tensor._make(out, (a, b), bwd)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor._make(-a.data, (a,), lambda g: (-g,))

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self
        p = float(exponent)
        out = a.data**p

        def bwd(g):
            return (g * p * a.data ** (p - 1.0),)

        return Tensor._make(out, (a,), bwd)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        out = a.data @ b.data

        def bwd(g):
            if a.data.ndim == 2 and b.data.ndim == 2:
                return g @ b.data.T, a.data.T @ g
            # Batched matmul: contract over the batch dims with unbroadcast.
            ga = g @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ g
            return unbroadcast(ga, a.data.shape), unbroadcast(gb, b.data.shape)

        return Tensor._make(out, (a, b), bwd)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #

    def exp(self) -> "Tensor":
        a = self
        out = np.exp(a.data)
        return Tensor._make(out, (a,), lambda g: (g * out,))

    def log(self) -> "Tensor":
        a = self
        out = np.log(a.data)
        return Tensor._make(out, (a,), lambda g: (g / a.data,))

    def sqrt(self) -> "Tensor":
        a = self
        out = np.sqrt(a.data)
        return Tensor._make(out, (a,), lambda g: (g * 0.5 / out,))

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0
        out = a.data * mask
        return Tensor._make(out, (a,), lambda g: (g * mask,))

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)
        return Tensor._make(np.abs(a.data), (a,), lambda g: (g * sign,))

    def clip(self, lo: float, hi: float) -> "Tensor":
        a = self
        out = np.clip(a.data, lo, hi)
        mask = (a.data >= lo) & (a.data <= hi)
        return Tensor._make(out, (a,), lambda g: (g * mask,))

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False),)
            ax = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False),)

        return Tensor._make(out, (a,), bwd)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out = a.data.mean(axis=axis, keepdims=keepdims)
        denom = a.data.size if axis is None else np.prod(
            [a.data.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))]
        )

        def bwd(g):
            g = np.asarray(g) / denom
            if axis is None:
                return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False),)
            ax = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False),)

        return Tensor._make(out, (a,), bwd)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out = a.data.max(axis=axis, keepdims=keepdims)

        def bwd(g):
            g = np.asarray(g)
            if axis is None:
                full_out = out
            else:
                full_out = a.data.max(axis=axis, keepdims=True)
                ax = axis if isinstance(axis, tuple) else (axis,)
                if not keepdims:
                    g = np.expand_dims(g, ax)
            mask = (a.data == full_out).astype(a.data.dtype)
            # Split gradient among ties (matches subgradient convention).
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (g * mask / counts,)

        return Tensor._make(out, (a,), bwd)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def argmax(self, axis=None) -> np.ndarray:
        """Non-differentiable argmax on the raw data."""
        return self.data.argmax(axis=axis)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out = a.data.reshape(shape)
        return Tensor._make(out, (a,), lambda g: (g.reshape(a.data.shape),))

    def flatten_from(self, start_dim: int = 1) -> "Tensor":
        """Flatten trailing dims from ``start_dim`` (like ``torch.flatten``)."""
        lead = self.data.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            axes_t = tuple(reversed(range(a.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_t = tuple(axes[0])
        else:
            axes_t = tuple(axes)
        inverse = tuple(np.argsort(axes_t))
        out = a.data.transpose(axes_t)
        return Tensor._make(out, (a,), lambda g: (g.transpose(inverse),))

    def __getitem__(self, idx) -> "Tensor":
        a = self
        out = a.data[idx]

        def bwd(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._make(out, (a,), bwd)
