"""Stacked cross-client execution — K clients as one vectorized program.

The paper's clients all distill into *tiny homogeneous knowledge networks*,
so a round's K local training loops are structurally one batched computation.
Activations stack as ``(K, B, ...)`` and parameters as ``(K,) + shape``;
a Linear layer becomes one batched matmul ``(K,B,in) @ (K,in,out)`` instead
of K small GEMMs.

This module holds no arithmetic of its own. :func:`build_stacked` copies the
template's own module tree once, with every parameter and buffer as a
``(K,) + shape`` array under its own name; every module's own ``forward``
then runs the stacked program on ``(K, B, ...)`` inputs, and the trainers
call the serial losses on its ``(K, B, C)`` logits.

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


# Layers that stack under ``--executor batched`` but not under the in-process
# default (:func:`fully_batched`): conv walks the stack one client at a time,
# so a conv stack buys no speed, only K clients' activations at once. Every
# zoo model with batch norm or a pool also convolves.
_NOT_STACKED_BY_DEFAULT = (Conv2d, BatchNorm2d, MaxPool2d, AvgPool2d, AdaptiveAvgPool2d)

# Module types whose own ``forward`` runs unchanged on (K, B, ...): every
# layer's kernel takes leading client axes, and each container's forward
# calls only its children and elementwise Tensor ops. A model joins this set
# only if its forward meets that condition.
_STACKABLE = frozenset(
    {Linear, Flatten, ReLU, Identity, Dropout, *_NOT_STACKED_BY_DEFAULT,
     Sequential, MLP, CNN2Layer, BasicBlock, CifarResNet, VGG}
)


def _stack(m: Module, k: int) -> Module | None:
    """Copy the module tree ``m`` for K clients, or ``None`` if any module
    in it has no stacked equivalent (rules in :func:`build_stacked`)."""
    kind = type(m)
    if kind not in _STACKABLE or (kind is Dropout and m.p > 0):
        return None
    # The shallow copy keeps the hyperparameters; the registries are its own.
    twin = copy.copy(m)
    for registry in ("_parameters", "_buffers", "_modules"):
        object.__setattr__(twin, registry, OrderedDict())
    for name, p in m._parameters.items():
        setattr(twin, name, Parameter(np.empty((k,) + p.shape, dtype=p.dtype)))
    for name, b in m._buffers.items():
        twin.register_buffer(name, np.empty((k,) + b.shape, dtype=b.dtype))
    for name, child in m._modules.items():
        stacked = _stack(child, k)
        if stacked is None:
            return None
        setattr(twin, name, stacked)
    if kind is Flatten:
        twin.start_dim = m.start_dim + 1  # the leading client axis shifts every dim
    return twin


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

    Every module is copied with its hyperparameters, and its parameters and
    buffers become ``(K,) + shape`` arrays under the same names; Flatten's
    ``start_dim`` shifts past the client axis. Returns ``None`` if a module's
    type is not in ``_STACKABLE`` or a dropout is active (each client owns a
    private RNG stream, which a stacked mask draw would not replay); the
    caller trains those clients through the serial path.
    """
    net = _stack(template, k)
    return None if net is None else StackedModel(net, k)


def fully_batched(template: Module) -> bool:
    """Whether ``template`` has no conv, batch-norm or pool layer, i.e. its
    stacked program is worth running by default: every layer is one
    vectorized call across the client axis, none a walk over it."""
    return not any(isinstance(m, _NOT_STACKED_BY_DEFAULT) for m in template.modules())
