"""Stacked cross-client execution — K clients as one vectorized program.

The paper's clients all distill into *tiny homogeneous knowledge networks*,
so a round's K local training loops are structurally one batched computation.
Activations stack as ``(K, B, ...)`` and parameters as ``(K,) + shape``;
a Linear layer becomes one batched matmul ``(K,B,in) @ (K,in,out)`` instead
of K small GEMMs.

This module holds no arithmetic of its own. :func:`build_stacked` copies the
template's own module tree, swapping each stateful or shape-dependent leaf
for a stacked leaf that runs the serial layer's own ``forward`` on the whole
stack; the containers' own ``forward`` methods then run the stacked program
on ``(K, B, ...)`` inputs, and the trainers call the serial losses on its
``(K, B, C)`` logits.

Bit-identity contract
---------------------
Every client slice of a stacked program must replay the serial kernels in
:mod:`repro.nn.functional` **bit-for-bit**; the batched executor is
fingerprint-pinned against :class:`SerialExecutor`. The kernels carry it:
each takes a leading client axis and acts on each index exactly as on its
own slice. ``F.linear`` runs batched matmuls; the losses, batch norm and the
pools reduce over their trailing axes only; elementwise ops broadcast; and
``F.conv2d`` walks the client axis inside its one autograd node, handing
every client's GEMMs one model's operands.

:func:`fully_batched` tells a model without conv, batch-norm or pool layers
(the ``_NOT_STACKED_BY_DEFAULT`` tuple) from one with them: stacking a conv
program buys no speed and holds K clients' activations at once, so the
in-process default executor stacks only fully batched ones.
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
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.models.cnn import CNN2Layer
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import BasicBlock, CifarResNet
from repro.nn.models.vgg import VGG
from repro.nn.module import Module, Parameter
from repro.nn.serialization import FlatState, StateLayout
from repro.nn.tensor import Tensor

__all__ = ["StackedModel", "build_stacked", "fully_batched"]


class _Unsupported(Exception):
    """Raised while copying a template that has no stacked equivalent."""


# Layers that stack under ``--executor batched`` but not under the in-process
# default (:func:`fully_batched`): conv walks the stack one client at a time,
# so a conv stack buys no speed, only K clients' activations at once. Every
# zoo model with batch norm or a pool also convolves.
_NOT_STACKED_BY_DEFAULT = (Conv2d, BatchNorm2d, MaxPool2d, AvgPool2d, AdaptiveAvgPool2d)

# Stateless leaves that act elementwise, so they run unchanged on (K, B, ...).
_ELEMENTWISE = (ReLU, Identity, Dropout)

# Containers whose own ``forward`` calls only their children and elementwise
# Tensor ops, so it runs unchanged on (K, B, ...) once the leaves are stacked.
# A model joins this list only if its forward meets that condition.
_CONTAINERS = (Sequential, MLP, CNN2Layer, BasicBlock, CifarResNet, VGG)


class _StackedLeaf(Module):
    """One template leaf for K clients: the leaf's hyperparameters, its
    parameters and buffers as (K,)+shape arrays under the leaf's own names,
    and the layer's own ``forward``, run on the whole stack."""

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

    def forward(self, x: Tensor) -> Tensor:
        return self._serial.forward(self, x)


def _twin(m: Module) -> Module:
    """A shallow copy of ``m`` with registries of its own (and no entries)."""
    twin = copy.copy(m)
    for registry in ("_parameters", "_buffers", "_modules"):
        object.__setattr__(twin, registry, OrderedDict())
    return twin


def _stack(m: Module, k: int) -> Module:
    """Copy the module tree ``m`` for K clients (rules in :func:`build_stacked`)."""
    kind = type(m)
    if kind is Linear or kind in _NOT_STACKED_BY_DEFAULT:
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
    Client states load and unload as :class:`FlatState` rows in the
    template's state layout (``self.layout``), keyed and ordered like the
    template's ``state_dict``.
    """

    def __init__(self, net: Module, k: int) -> None:
        super().__init__()
        self.k = k
        self.net = net
        # One flat view, taken once: SGD, the BN statistics and
        # load_client_states all write these arrays in place.
        self._state = net.state_dict(copy=False)
        self.layout = StateLayout.of((n, a.shape[1:], a.dtype) for n, a in self._state.items())
        arrays = list(self._state.values())
        self._by_buffer = [[arrays[i] for i in entries] for entries in self.layout.buffer_entries]
        self.train()

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def load_client_states(self, states) -> None:
        """Fill slice ``i`` of every stacked array from ``states[i]``. One
        state shared by every client (a broadcast) is flattened into
        ``self.layout`` once and loads as one broadcasting copy per array."""
        if len(states) != self.k:
            raise ValueError(f"expected {self.k} client states, got {len(states)}")
        if all(state is states[0] for state in states):
            rows = [buf[None] for buf in FlatState.of(states[0], self.layout).buffers]
            for target, (b, start, stop) in zip(self._state.values(), self.layout.slots):
                target[...] = rows[b][:, start:stop].reshape((-1,) + target.shape[1:])
            return
        for key, target in self._state.items():
            for i, state in enumerate(states):
                target[i] = state[key]

    def client_state(self, i: int) -> FlatState:
        """Client ``i``'s state, copied out in the template's layout."""
        return FlatState(
            self.layout,
            [np.concatenate([a[i].reshape(-1) for a in arrays]) for arrays in self._by_buffer],
        )


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
    """Whether ``template`` has no conv, batch-norm or pool layer, i.e. its
    stacked program is worth running by default: every layer is one
    vectorized call across the client axis, none a walk over it."""
    return not any(isinstance(m, _NOT_STACKED_BY_DEFAULT) for m in template.modules())
