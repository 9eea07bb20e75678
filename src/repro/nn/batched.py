"""Stacked cross-client tensor ops — K clients as one vectorized program.

The paper's clients all distill into *tiny homogeneous knowledge networks*,
so a round's K local training loops are structurally one batched computation.
This module adds a leading client axis ``K`` to every op the model zoo uses:
activations stack as ``(K, B, ...)``, parameters as ``(K,) + shape``, and a
Linear layer becomes one batched matmul ``(K,B,in) @ (K,in,out)`` instead of
K small GEMMs.

Bit-identity contract
---------------------
Every op here must replay the serial per-client kernels in
:mod:`repro.nn.functional` **bit-for-bit** per client slice; the batched
executor is fingerprint-pinned against :class:`SerialExecutor`. Two regimes:

- *Fully batched* (exact by construction): matmuls with a leading batch axis,
  elementwise broadcasting, last-axis reductions (log-softmax rows), window
  max. NumPy evaluates these per-slice identically to the 2-D calls.
- *Per-client slices* of the stacked tensor for multi-axis float reductions
  (BatchNorm statistics, pooling means, conv bias gradients) and the whole
  im2col path: ``x[k]`` of a contiguous ``(K,B,C,H,W)`` array is a contiguous
  ``(B,C,H,W)`` slice, so calling the *identical* serial kernel on it is
  bit-identical on any platform, whereas a fused multi-axis reduction may
  pick a different pairwise summation tree. These loops are K-length (cohort
  size, not dataset size) and carry ``reprolint: allow[RPL601]`` pragmas;
  RPL601 flags any *other* per-client loop that should use the stacked axis.

:func:`fully_batched` tells the two apart for a whole model: stacking a
program with per-slice ops buys no speed and holds K clients' activations
at once, so the in-process default executor stacks only fully batched ones.

The conv path owns no arithmetic: ``conv2d_k`` calls the serial kernel's
``F._im2col_rows`` / ``F._conv_forward`` / ``F._im2col_cols`` /
``F._conv_backward`` / ``F._col2im`` on per-client slices, so the three
contractions, their operand arrangement and the degenerate-geometry rule are
written once, in ``nn/functional.py``.

No model's forward is written here. :func:`build_stacked` copies the
template's own module tree, swapping each stateful or shape-dependent leaf
for a stacked leaf that runs its ``*_k`` op; the containers' own
``forward`` methods then run the stacked program on ``(K, B, ...)`` inputs.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.nn import functional as F
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

__all__ = [
    "linear_k",
    "conv2d_k",
    "batch_norm2d_k",
    "max_pool2d_k",
    "avg_pool2d_k",
    "adaptive_avg_pool2d_k",
    "cross_entropy_k",
    "kl_div_with_logits_k",
    "StackedModel",
    "build_stacked",
    "fully_batched",
]


# ---------------------------------------------------------------------- #
# stacked functional ops
# ---------------------------------------------------------------------- #


def linear_k(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """K-stacked affine map: ``x``: (K,B,in), ``weight``: (K,out,in).

    One batched matmul replaces K small GEMMs; per-slice results match
    :func:`repro.nn.functional.linear` bitwise (BLAS runs the same 2-D
    kernel on each contiguous slice).
    """
    out = np.matmul(x.data, weight.data.transpose(0, 2, 1))
    if bias is not None:
        out = out + bias.data[:, None, :]

    if bias is None:

        def bwd(g):
            return (
                np.matmul(g, weight.data),
                np.matmul(g.transpose(0, 2, 1), x.data),
            )

        return Tensor._make(out, (x, weight), bwd)

    def bwd_b(g):
        return (
            np.matmul(g, weight.data),
            np.matmul(g.transpose(0, 2, 1), x.data),
            g.sum(axis=1),
        )

    return Tensor._make(out, (x, weight, bias), bwd_b)


def conv2d_k(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """K-stacked conv2d: ``x``: (K,B,C,H,W), ``weight``: (K,OC,IC,kh,kw).

    Runs the serial kernels of :func:`repro.nn.functional.conv2d` — its
    im2col, its three contractions, its col2im — on each contiguous client
    slice, hence bit-identical per slice.
    """
    kk, n, c, h, w = x.data.shape
    _, oc, ic, kh, kw = weight.data.shape
    if ic != c:
        raise ValueError(f"conv2d_k channel mismatch: input has {c}, weight expects {ic}")
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    w2 = weight.data.reshape(kk, oc, -1)
    xp = F._pad_input(x.data.reshape(kk * n, c, h, w), padding)
    xp = xp.reshape(kk, n, *xp.shape[1:])
    out = np.empty((kk, n, oc, out_h, out_w), dtype=x.data.dtype)
    for i in range(kk):  # reprolint: allow[RPL601]
        rows = F._im2col_rows(xp[i], kh, kw, stride)
        b = None if bias is None else bias.data[i]
        out[i] = F._conv_forward(rows, w2[i], b, n).reshape(n, oc, out_h, out_w)

    def bwd(g):
        gx = np.empty((kk, n, c, h, w), dtype=x.data.dtype)
        gw = np.empty(weight.data.shape, dtype=weight.data.dtype)
        gb = None if bias is None else np.empty(bias.data.shape, dtype=bias.data.dtype)
        for i in range(kk):  # reprolint: allow[RPL601]
            gout = g[i].reshape(n, oc, -1)
            cols = F._im2col_cols(xp[i], kh, kw, stride)
            gcols, gw2 = F._conv_backward(cols, w2[i], gout)
            gw[i] = gw2.reshape(weight.data.shape[1:])
            gx[i] = F._col2im(gcols, (n, c, h, w), kh, kw, stride, padding)
            if gb is not None:
                gb[i] = gout.sum(axis=(0, 2))
        if bias is None:
            return gx, gw
        return gx, gw, gb

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, bwd)


def batch_norm2d_k(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """K-stacked batch norm with *per-client* batch statistics.

    ``x``: (K,B,C,H,W); ``gamma``/``beta``/running buffers: (K,C). Each
    client normalizes over its own (B,H,W) — statistics are reduced per
    contiguous slice with the serial kernel's exact calls, then the affine
    transform is applied as one batched elementwise expression.
    """
    kk, n, c, h, w = x.data.shape
    axes = (0, 2, 3)
    if training:
        mean = np.empty((kk, c), dtype=x.data.dtype)
        var = np.empty((kk, c), dtype=x.data.dtype)
        for i in range(kk):  # reprolint: allow[RPL601]
            mean[i] = x.data[i].mean(axis=axes)
            var[i] = x.data[i].var(axis=axes)
        m = n * h * w
        unbiased = var * (m / max(m - 1, 1))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    mean5 = mean.reshape(kk, 1, c, 1, 1)
    inv5 = inv_std.reshape(kk, 1, c, 1, 1)
    xhat = (x.data - mean5) * inv5
    gamma5 = gamma.data.reshape(kk, 1, c, 1, 1)
    beta5 = beta.data.reshape(kk, 1, c, 1, 1)
    out = gamma5 * xhat + beta5

    if training:

        def bwd(g):
            m = n * h * w
            dxhat = g * gamma5
            prod = dxhat * xhat
            sum_dxhat = np.empty((kk, 1, c, 1, 1), dtype=dxhat.dtype)
            sum_dxhat_xhat = np.empty((kk, 1, c, 1, 1), dtype=dxhat.dtype)
            for i in range(kk):  # reprolint: allow[RPL601]
                sum_dxhat[i] = dxhat[i].sum(axis=axes, keepdims=True)
                sum_dxhat_xhat[i] = prod[i].sum(axis=axes, keepdims=True)
            gx = (inv5 / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
            gxh = g * xhat
            ggamma = np.empty((kk, c), dtype=gamma.data.dtype)
            gbeta = np.empty((kk, c), dtype=beta.data.dtype)
            for i in range(kk):  # reprolint: allow[RPL601]
                ggamma[i] = gxh[i].sum(axis=axes)
                gbeta[i] = g[i].sum(axis=axes)
            return gx.astype(x.dtype, copy=False), ggamma, gbeta

    else:

        def bwd(g):
            gx = g * gamma5 * inv5
            gxh = g * xhat
            ggamma = np.empty((kk, c), dtype=gamma.data.dtype)
            gbeta = np.empty((kk, c), dtype=beta.data.dtype)
            for i in range(kk):  # reprolint: allow[RPL601]
                ggamma[i] = gxh[i].sum(axis=axes)
                gbeta[i] = g[i].sum(axis=axes)
            return gx.astype(x.dtype, copy=False), ggamma, gbeta

    return Tensor._make(out.astype(x.dtype, copy=False), (x, gamma, beta), bwd)


def max_pool2d_k(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """K-stacked max pooling (kernel == stride, divisible dims).

    Window max and the tie-splitting backward are exact (max and integer tie
    counts have no float reduction order), so both stay fully batched.
    """
    k = kernel_size
    s = stride if stride is not None else k
    kk, n, c, h, w = x.data.shape
    if s != k or h % k or w % k:
        raise NotImplementedError(
            f"max_pool2d_k supports kernel==stride with divisible dims; got "
            f"k={k}, s={s}, h={h}, w={w}"
        )
    oh, ow = h // k, w // k
    out = F._window_max(x.data, k)

    def bwd(g):
        windows = x.data.reshape(kk, n, c, oh, k, ow, k)
        mask = windows == out.reshape(kk, n, c, oh, 1, ow, 1)
        counts = mask.sum(axis=(4, 6), keepdims=True)
        g7 = g.reshape(kk, n, c, oh, 1, ow, 1)
        gx = (mask * g7 / counts).reshape(kk, n, c, h, w)
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), bwd)


def avg_pool2d_k(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """K-stacked average pooling (kernel == stride, divisible dims)."""
    k = kernel_size
    s = stride if stride is not None else k
    kk, n, c, h, w = x.data.shape
    if s != k or h % k or w % k:
        raise NotImplementedError(
            f"avg_pool2d_k supports kernel==stride with divisible dims; got "
            f"k={k}, s={s}, h={h}, w={w}"
        )
    oh, ow = h // k, w // k
    out = np.empty((kk, n, c, oh, ow), dtype=x.data.dtype)
    for i in range(kk):  # reprolint: allow[RPL601]
        out[i] = x.data[i].reshape(n, c, oh, k, ow, k).mean(axis=(3, 5))

    def bwd(g):
        g7 = g.reshape(kk, n, c, oh, 1, ow, 1) / (k * k)
        gx = np.broadcast_to(g7, (kk, n, c, oh, k, ow, k)).reshape(kk, n, c, h, w)
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), bwd)


def adaptive_avg_pool2d_k(x: Tensor, output_size: int = 1) -> Tensor:
    """K-stacked global average pooling to 1×1."""
    if output_size != 1:
        raise NotImplementedError("only global adaptive average pooling is supported")
    kk, n, c, h, w = x.data.shape
    out = np.empty((kk, n, c, 1, 1), dtype=x.data.dtype)
    for i in range(kk):  # reprolint: allow[RPL601]
        out[i] = x.data[i].mean(axis=(2, 3), keepdims=True)

    def bwd(g):
        gx = np.broadcast_to(g / (h * w), (kk, n, c, h, w))
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), bwd)


def cross_entropy_k(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-client mean cross-entropy: ``logits`` (K,B,C), ``labels`` (K,B).

    Returns a (K,) loss tensor — one scalar per client, each the exact
    serial :func:`repro.nn.functional.cross_entropy` mean over that client's
    batch. Backprop with ``loss.backward(np.ones(K, dtype=np.float32))`` to
    run every client's backward pass at once.
    """
    labels = np.asarray(labels)
    kk, n, _ = logits.data.shape
    logp = F._stable_log_softmax(logits.data, axis=2)
    ka = np.arange(kk)[:, None]
    ba = np.arange(n)[None, :]
    picked = logp[ka, ba, labels]
    losses = -picked.mean(axis=1)
    scale = 1.0 / n
    soft = np.exp(logp)

    def bwd(g):
        grad = soft.copy()
        grad[ka, ba, labels] -= 1.0
        # Serial does ``grad * (float(g) * scale)``: the multiplier is an
        # f64 product rounded to f32 *once*. Replicate that rounding per
        # client before the elementwise multiply.
        mult = (g.astype(np.float64) * scale).astype(grad.dtype)
        return (grad * mult[:, None, None],)

    return Tensor._make(np.asarray(losses, dtype=logits.dtype), (logits,), bwd)


def kl_div_with_logits_k(
    teacher_logits: Tensor | np.ndarray,
    student_logits: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """Per-client batchmean KL(teacher ‖ student) over (K,B,C) logits.

    The stacked counterpart of Eq. 2's
    :func:`repro.nn.functional.kl_div_with_logits`; teacher is detached.
    Returns a (K,) loss tensor.
    """
    t = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    kk, n, _ = student_logits.data.shape
    tt = t / temperature
    ss = student_logits.data / temperature
    logp = F._stable_log_softmax(tt, axis=2)
    logq = F._stable_log_softmax(ss, axis=2)
    p = np.exp(logp)
    kl = (p * (logp - logq)).sum(axis=2)
    losses = kl.mean(axis=1)
    scale = 1.0 / n
    q = np.exp(logq)
    grad_base = (q - p) * (scale / temperature)

    def bwd(g):
        return (grad_base * g[:, None, None],)

    return Tensor._make(
        np.asarray(losses, dtype=student_logits.dtype), (student_logits,), bwd
    )


# ---------------------------------------------------------------------- #
# stacked model construction
# ---------------------------------------------------------------------- #


class _Unsupported(Exception):
    """Raised while copying a template that has no stacked equivalent."""


# Leaf type → its stacked op. ``m`` is the stacked leaf: the template leaf's
# hyperparameters with (K,)+shape parameters and buffers under its names.
_STACKED_OPS: dict[type, Callable[[Module, Tensor], Tensor]] = {
    Linear: lambda m, x: linear_k(x, m.weight, m.bias),
    Conv2d: lambda m, x: conv2d_k(x, m.weight, m.bias, stride=m.stride, padding=m.padding),
    BatchNorm2d: lambda m, x: batch_norm2d_k(
        x, m.gamma, m.beta, m.running_mean, m.running_var,
        training=m.training, momentum=m.momentum, eps=m.eps,
    ),
    MaxPool2d: lambda m, x: max_pool2d_k(x, m.kernel_size, m.stride),
    AvgPool2d: lambda m, x: avg_pool2d_k(x, m.kernel_size, m.stride),
    AdaptiveAvgPool2d: lambda m, x: adaptive_avg_pool2d_k(x, m.output_size),
    # The leading client axis shifts every dim by one.
    Flatten: lambda m, x: x.flatten_from(m.start_dim + 1),
}

# Stateless leaves that act elementwise, so they run unchanged on (K, B, ...).
_ELEMENTWISE = (ReLU, Tanh, Sigmoid, GELU, LeakyReLU, Identity, Dropout)

# Containers whose own ``forward`` calls only their children and elementwise
# Tensor ops, so it runs unchanged on (K, B, ...) once the leaves are stacked.
# A model joins this list only if its forward meets that condition.
_CONTAINERS = (Sequential, MLP, CNN2Layer, BasicBlock, CifarResNet, VGG)


class _StackedLeaf(Module):
    """One template leaf for K clients: the leaf's hyperparameters, its
    parameters and buffers as (K,)+shape arrays under the leaf's own names,
    and a ``forward`` that runs the leaf type's stacked op."""

    def __init__(self, leaf: Module, k: int) -> None:
        super().__init__()
        own = set(vars(self)) | set(leaf._parameters) | set(leaf._buffers)
        # Hyperparameters (and a ``None`` bias) carry over as they are.
        self.__dict__.update((n, v) for n, v in vars(leaf).items() if n not in own)
        for name, p in leaf._parameters.items():
            setattr(self, name, Parameter(np.empty((k,) + p.shape, dtype=p.dtype)))
        for name, b in leaf._buffers.items():
            self.register_buffer(name, np.empty((k,) + b.shape, dtype=b.dtype))
        self._op = _STACKED_OPS[type(leaf)]

    def forward(self, x: Tensor) -> Tensor:
        return self._op(self, x)


def _twin(m: Module) -> Module:
    """A shallow copy of ``m`` with registries of its own (and no entries)."""
    twin = copy.copy(m)
    for registry in ("_parameters", "_buffers", "_modules"):
        object.__setattr__(twin, registry, OrderedDict())
    return twin


def _stack(m: Module, k: int) -> Module:
    """Copy the module tree ``m`` for K clients (rules in :func:`build_stacked`)."""
    kind = type(m)
    if kind in _STACKED_OPS:
        if kind is AdaptiveAvgPool2d and m.output_size != 1:
            raise _Unsupported("adaptive pool with output_size != 1")
        return _StackedLeaf(m, k)
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
    BatchNorm2d, the pools, Flatten) become stacked leaves; elementwise
    leaves are copied unchanged; containers on the allowlist are copied
    with stacked children, so their own ``forward`` is the stacked program.
    Returns ``None`` for anything else — a type off the allowlist, active
    dropout, adaptive pooling past 1×1, a container that owns parameters —
    and the caller trains those clients through the serial path.
    """
    try:
        return StackedModel(_stack(template, k), k)
    except _Unsupported:
        return None


# Layers whose stacked op loops over per-client slices (the RPL601-allowed
# loops of conv2d_k, batch_norm2d_k, avg_pool2d_k, adaptive_avg_pool2d_k).
_PER_SLICE_LAYERS = (Conv2d, BatchNorm2d, AvgPool2d, AdaptiveAvgPool2d)


def fully_batched(template: Module) -> bool:
    """Whether ``template``'s stacked program has no per-client-slice op,
    i.e. every layer runs as one vectorized call across the client axis."""
    return not any(isinstance(m, _PER_SLICE_LAYERS) for m in template.modules())
