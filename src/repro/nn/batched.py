"""Stacked cross-client execution — K clients as one vectorized program.

The paper's clients all distill into *tiny homogeneous knowledge networks*,
so a round's K local training loops are structurally one batched computation.
Activations stack as ``(K, B, ...)`` and parameters as ``(K,) + shape``;
a Linear layer becomes one batched matmul ``(K,B,in) @ (K,in,out)`` instead
of K small GEMMs.

This module holds no arithmetic of its own. :func:`build_stacked` copies the
template's own module tree, swapping each stateful or shape-dependent leaf
for a stacked leaf that runs the serial layer's own ``forward``; the
containers' own ``forward`` methods then run the stacked program on
``(K, B, ...)`` inputs, and the trainers call the serial losses on its
``(K, B, C)`` logits.

Bit-identity contract
---------------------
Every client slice of a stacked program must replay the serial kernels in
:mod:`repro.nn.functional` **bit-for-bit**; the batched executor is
fingerprint-pinned against :class:`SerialExecutor`. Two regimes:

- *Fully batched*: ``F.linear`` and the two losses take a leading client
  axis and act on each index exactly as on its 2-D slice (batched matmuls,
  last-axis reductions), and elementwise ops broadcast. A stacked Linear
  runs ``Linear.forward`` on the whole stack.
- *Per-client slices* for the ``_PER_SLICE`` layers (Conv2d, BatchNorm2d,
  the pools): multi-axis float reductions and the im2col path, where a fused
  call over the client axis may pick another pairwise summation tree. Their
  stacked leaf runs the template layer's own ``forward`` once per client
  slice (:func:`_per_slice`), so its forward and backward *are* the serial
  kernel. That K-length loop is the one RPL601-allowed loop here; RPL601
  flags any other per-client loop that should use the stacked axis.

:func:`fully_batched` tells the two apart for a whole model: stacking a
program with per-slice layers buys no speed and holds K clients' activations
at once, so the in-process default executor stacks only fully batched ones.
"""

from __future__ import annotations

import copy
from collections import OrderedDict

import numpy as np

from repro.nn.layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GELU,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.models.cnn import CNN2Layer
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import BasicBlock, CifarResNet
from repro.nn.models.vgg import VGG
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["StackedModel", "build_stacked", "fully_batched"]


class _Unsupported(Exception):
    """Raised while copying a template that has no stacked equivalent."""


# Layers whose stacked leaf runs the template layer's own ``forward`` once per
# client slice (:func:`_per_slice`): their multi-axis float reductions and the
# im2col path would reduce in another order across the client axis. Max-pool
# has no such reduction, but every zoo model that pools also convolves.
_PER_SLICE = (Conv2d, BatchNorm2d, MaxPool2d, AvgPool2d, AdaptiveAvgPool2d)

# Stateless leaves that act elementwise, so they run unchanged on (K, B, ...).
_ELEMENTWISE = (ReLU, Tanh, Sigmoid, GELU, LeakyReLU, Identity, Dropout)

# Containers whose own ``forward`` calls only their children and elementwise
# Tensor ops, so it runs unchanged on (K, B, ...) once the leaves are stacked.
# A model joins this list only if its forward meets that condition.
_CONTAINERS = (Sequential, MLP, CNN2Layer, BasicBlock, CifarResNet, VGG)


class _StackedLeaf(Module):
    """One template leaf for K clients: the leaf's hyperparameters, its
    parameters and buffers as (K,)+shape arrays under the leaf's own names,
    and a ``forward`` that runs the layer's own ``forward``: on the whole
    stack for Linear, on each client slice for a ``_PER_SLICE`` layer."""

    def __init__(self, leaf: Module, k: int) -> None:
        super().__init__()
        own = set(vars(self)) | set(leaf._parameters) | set(leaf._buffers)
        # Hyperparameters (and a ``None`` bias) carry over as they are.
        self.__dict__.update((n, v) for n, v in vars(leaf).items() if n not in own)
        for name, p in leaf._parameters.items():
            setattr(self, name, Parameter(np.empty((k,) + p.shape, dtype=p.dtype)))
        for name, b in leaf._buffers.items():
            self.register_buffer(name, np.empty((k,) + b.shape, dtype=b.dtype))
        self._serial = type(leaf)
        self._op = _per_slice if self._serial in _PER_SLICE else self._serial.forward

    def forward(self, x: Tensor) -> Tensor:
        return self._op(self, x)


def _per_slice(m: _StackedLeaf, x: Tensor) -> Tensor:
    """Run the template layer's own ``forward`` on each client slice.

    Client ``i`` gets a shallow copy of ``m`` holding fresh slices of its
    parameters and views ``b[i]`` of its buffers, so BatchNorm's in-place
    running-stat update writes the stack. The forward is one
    :mod:`repro.nn.functional` node per slice: its output is copied into one
    (K, ...) array and dropped, and only its backward closure is kept, with
    its parents mapped by identity to the stacked (x, parameters).
    """
    params = tuple(m._parameters.values())
    k = len(x.data)
    out = None
    slices = []
    for i in range(k):  # reprolint: allow[RPL601]
        xi = Tensor(x.data[i], requires_grad=x.requires_grad)
        pis = [Tensor(p.data[i], requires_grad=True) for p in params]
        view = copy.copy(m)
        vars(view).update(zip(m._parameters, pis))
        vars(view).update((name, b[i]) for name, b in m._buffers.items())
        y = m._serial.forward(view, xi)
        if out is None:
            out = np.empty((k,) + y.shape, dtype=y.dtype)
        out[i] = y.data
        where = {id(t): j for j, t in enumerate([xi, *pis])}
        slices.append((y._backward_fn, [where[id(t)] for t in y._parents]))

    def bwd(g):
        grads = [None] * (1 + len(params))
        for i, (fn, which) in enumerate(slices):
            for j, gj in zip(which, fn(g[i])):
                if grads[j] is None:
                    grads[j] = np.empty((k,) + gj.shape, dtype=gj.dtype)
                grads[j][i] = gj
        return grads

    return Tensor._make(out, (x,) + params, bwd)


def _twin(m: Module) -> Module:
    """A shallow copy of ``m`` with registries of its own (and no entries)."""
    twin = copy.copy(m)
    for registry in ("_parameters", "_buffers", "_modules"):
        object.__setattr__(twin, registry, OrderedDict())
    return twin


def _stack(m: Module, k: int) -> Module:
    """Copy the module tree ``m`` for K clients (rules in :func:`build_stacked`)."""
    kind = type(m)
    if kind is Linear or kind in _PER_SLICE:
        if kind is AdaptiveAvgPool2d and m.output_size != 1:
            raise _Unsupported("adaptive pool with output_size != 1")
        return _StackedLeaf(m, k)
    if kind is Flatten:
        twin = _twin(m)
        twin.start_dim = m.start_dim + 1  # the leading client axis shifts every dim
        return twin
    if kind in _ELEMENTWISE:
        if kind is Dropout and m.p > 0:
            # Each client owns a private RNG stream; a stacked mask draw would
            # diverge from the serial order. Fall back to serial training.
            raise _Unsupported("dropout with p > 0")
        return _twin(m)
    if kind in _CONTAINERS and not (m._parameters or m._buffers):
        twin = _twin(m)
        for name, child in m._modules.items():
            setattr(twin, name, _stack(child, k))
        return twin
    raise _Unsupported(f"no stacked equivalent for {kind.__name__}")


class StackedModel(Module):
    """K client models folded into one module tree of (K,)+shape arrays.

    Built by :func:`build_stacked`; ``forward`` runs on (K,B,...) inputs.
    Client states load and unload by slicing the leading axis of every
    array, keyed and ordered like the template's ``state_dict``.
    """

    def __init__(self, net: Module, k: int) -> None:
        super().__init__()
        self.k = k
        self.net = net
        # One flat view, taken once: SGD, the BN statistics and
        # load_client_states all write these arrays in place.
        self._state = net.state_dict(copy=False)
        self.train()

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def load_client_states(self, states) -> None:
        """Fill slice ``i`` of every stacked array from ``states[i]``."""
        if len(states) != self.k:
            raise ValueError(f"expected {self.k} client states, got {len(states)}")
        for key, target in self._state.items():
            for i, state in enumerate(states):
                target[i] = state[key]

    def client_state(self, i: int) -> "OrderedDict[str, np.ndarray]":
        """Slice client ``i``'s state out, in template ``state_dict`` order."""
        return OrderedDict((key, source[i].copy()) for key, source in self._state.items())


def build_stacked(template: Module, k: int) -> StackedModel | None:
    """Copy ``template``'s own module tree into a :class:`StackedModel` of K
    clients.

    Leaves with parameters or a shape-dependent kernel (Linear, Conv2d,
    BatchNorm2d, the pools) become stacked leaves; Flatten is copied with
    its ``start_dim`` shifted past the client axis; elementwise leaves are
    copied unchanged; containers on the allowlist are copied with stacked
    children, so their own ``forward`` is the stacked program.
    Returns ``None`` for anything else — a type off the allowlist, active
    dropout, adaptive pooling past 1×1, a container that owns parameters —
    and the caller trains those clients through the serial path.
    """
    try:
        return StackedModel(_stack(template, k), k)
    except _Unsupported:
        return None


def fully_batched(template: Module) -> bool:
    """Whether ``template``'s stacked program has no per-client-slice layer,
    i.e. every layer runs as one vectorized call across the client axis."""
    return not any(isinstance(m, _PER_SLICE) for m in template.modules())
