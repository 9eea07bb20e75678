"""Global autograd mode and the backward-pass scheduler.

The engine is a classic define-by-run reverse-mode AD: every differentiable
op builds a node holding a closure that maps the output gradient to parent
gradients. :func:`backward` topologically sorts the graph once and applies
the closures in reverse order, accumulating into ``Tensor.grad``.

Gradient mode follows PyTorch semantics: inside :func:`no_grad`, ops do not
record graph edges, so inference and federated-communication code paths
allocate no graph memory.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.tensor import Tensor

__all__ = ["is_grad_enabled", "no_grad", "set_grad_enabled", "backward"]

_grad_enabled: bool = True


def is_grad_enabled() -> bool:
    """Return whether ops currently record the autograd graph."""
    return _grad_enabled


@contextlib.contextmanager
def set_grad_enabled(mode: bool) -> Iterator[None]:
    """Context manager that sets grad mode to ``mode`` within the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = bool(mode)
    try:
        yield
    finally:
        _grad_enabled = prev


def no_grad() -> contextlib.AbstractContextManager[None]:
    """Disable graph recording inside the ``with`` block (inference mode)."""
    return set_grad_enabled(False)


def _topo_order(root: "Tensor") -> list["Tensor"]:
    """Iterative post-order DFS (recursion would overflow on deep ResNets)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
    return order


def backward(root: "Tensor", grad: np.ndarray | None = None) -> None:
    """Run reverse-mode accumulation from ``root``.

    Parameters
    ----------
    root:
        The tensor to differentiate. Must be scalar unless ``grad`` is given.
    grad:
        Upstream gradient with ``root``'s shape; defaults to ``1.0`` for
        scalar roots.
    """
    if grad is None:
        if root.data.size != 1:
            raise RuntimeError(
                "backward() on a non-scalar tensor requires an explicit grad "
                f"(shape {root.shape})"
            )
        grad = np.ones_like(root.data)
    else:
        grad = np.asarray(grad, dtype=root.data.dtype)
        if grad.shape != root.data.shape:
            raise RuntimeError(
                f"grad shape {grad.shape} does not match tensor shape {root.shape}"
            )

    order = _topo_order(root)
    # Seed gradient buffers keyed by node identity; flushed into .grad only
    # for leaves / retained tensors to keep memory bounded.
    grads: dict[int, np.ndarray] = {id(root): grad}
    # Owners of the arrays stored as some .grad in this pass: a closure may
    # hand the same array (or a view of it) to two parents, or a read-only
    # broadcast view, and .grad is updated in place (FedProx, SCAFFOLD).
    owners: set[int] = set()
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and (node._is_leaf or node._retains_grad):
            if node.grad is None:
                owner = id(g if g.base is None else g.base)
                if not g.flags.writeable or owner in owners:
                    g = g.copy(order="K")
                    owner = id(g)
                owners.add(owner)
                node.grad = g
            else:
                node.grad = node.grad + g
        if node._backward_fn is not None:
            parent_grads = node._backward_fn(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
