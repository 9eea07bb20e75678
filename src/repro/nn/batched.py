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
"""

from __future__ import annotations

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
    """Raised during tracing when a module has no stacked equivalent."""


class StackedModel:
    """K client models folded into one set of (K,)+shape parameters.

    Built by :func:`build_stacked` from a template :class:`Module`. The
    forward runs on (K,B,...) inputs; parameters and buffers are keyed by
    the template's ``state_dict`` names so client states load/unload by
    slicing the leading axis.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.training = True
        self.params: "OrderedDict[str, Parameter]" = OrderedDict()
        self.buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._key_order: tuple[str, ...] = ()
        self._forward: Callable[[Tensor], Tensor] | None = None

    # -- construction helpers (used by builders) ----------------------- #

    def add_param(self, key: str, template_param: Parameter) -> Parameter:
        sp = Parameter(
            np.empty((self.k,) + template_param.data.shape, dtype=template_param.data.dtype)
        )
        self.params[key] = sp
        return sp

    def add_buffer(self, key: str, template_buffer: np.ndarray) -> np.ndarray:
        sb = np.empty((self.k,) + template_buffer.shape, dtype=template_buffer.dtype)
        self.buffers[key] = sb
        return sb

    def _finalize(self, template: Module) -> None:
        keys = tuple(template.state_dict(copy=False).keys())
        if set(keys) != set(self.params) | set(self.buffers):
            raise _Unsupported(
                "stacked build did not cover the template state_dict"
            )
        self._key_order = keys

    # -- module-like surface -------------------------------------------- #

    def __call__(self, x: Tensor) -> Tensor:
        return self._forward(x)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def train(self, mode: bool = True) -> "StackedModel":
        self.training = mode
        return self

    def eval(self) -> "StackedModel":
        return self.train(False)

    # -- client state transfer ------------------------------------------ #

    def load_client_states(self, states) -> None:
        """Fill slice ``i`` of every stacked array from ``states[i]``."""
        for key in self._key_order:
            target = self.params[key].data if key in self.params else self.buffers[key]
            for i, state in enumerate(states):
                target[i] = state[key]

    def client_state(self, i: int) -> "OrderedDict[str, np.ndarray]":
        """Slice client ``i``'s state out, in template ``state_dict`` order."""
        out: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for key in self._key_order:
            source = self.params[key].data if key in self.params else self.buffers[key]
            out[key] = source[i].copy()
        return out


_BUILDERS: dict[type, Callable] = {}


def register_builder(module_type: type):
    """Register a stacked-forward builder for an exact module type."""

    def deco(fn):
        _BUILDERS[module_type] = fn
        return fn

    return deco


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _build_module(m: Module, prefix: str, sm: StackedModel) -> Callable[[Tensor], Tensor]:
    builder = _BUILDERS.get(type(m))
    if builder is None:
        raise _Unsupported(f"no stacked builder for {type(m).__name__}")
    return builder(m, prefix, sm)


def build_stacked(template: Module, k: int) -> StackedModel | None:
    """Trace ``template`` into a :class:`StackedModel` of K clients.

    Returns ``None`` when any submodule lacks a stacked equivalent — the
    caller falls back to the serial per-client path (the ISSUE's "stragglers
    with unique architectures fall back to serial").
    """
    sm = StackedModel(k)
    try:
        sm._forward = _build_module(template, "", sm)
        sm._finalize(template)
    except _Unsupported:
        return None
    return sm


# Layers whose stacked op loops over per-client slices (the RPL601-allowed
# loops of conv2d_k, batch_norm2d_k, avg_pool2d_k, adaptive_avg_pool2d_k).
_PER_SLICE_LAYERS = (Conv2d, BatchNorm2d, AvgPool2d, AdaptiveAvgPool2d)


def fully_batched(template: Module) -> bool:
    """Whether ``template``'s stacked program has no per-client-slice op,
    i.e. every layer runs as one vectorized call across the client axis."""
    return not any(isinstance(m, _PER_SLICE_LAYERS) for m in template.modules())


# -- leaf layers --------------------------------------------------------- #


@register_builder(Linear)
def _build_linear(m: Linear, prefix: str, sm: StackedModel):
    w = sm.add_param(_join(prefix, "weight"), m.weight)
    b = sm.add_param(_join(prefix, "bias"), m.bias) if m.bias is not None else None
    return lambda x: linear_k(x, w, b)


@register_builder(Conv2d)
def _build_conv(m: Conv2d, prefix: str, sm: StackedModel):
    w = sm.add_param(_join(prefix, "weight"), m.weight)
    b = sm.add_param(_join(prefix, "bias"), m.bias) if m.bias is not None else None
    stride, padding = m.stride, m.padding
    return lambda x: conv2d_k(x, w, b, stride=stride, padding=padding)


@register_builder(BatchNorm2d)
def _build_bn(m: BatchNorm2d, prefix: str, sm: StackedModel):
    gamma = sm.add_param(_join(prefix, "gamma"), m.gamma)
    beta = sm.add_param(_join(prefix, "beta"), m.beta)
    rm = sm.add_buffer(_join(prefix, "running_mean"), m.running_mean)
    rv = sm.add_buffer(_join(prefix, "running_var"), m.running_var)
    momentum, eps = m.momentum, m.eps
    return lambda x: batch_norm2d_k(
        x, gamma, beta, rm, rv, training=sm.training, momentum=momentum, eps=eps
    )


@register_builder(ReLU)
def _build_relu(m, prefix, sm):
    return lambda x: x.relu()


@register_builder(Tanh)
def _build_tanh(m, prefix, sm):
    return lambda x: x.tanh()


@register_builder(Sigmoid)
def _build_sigmoid(m, prefix, sm):
    return lambda x: x.sigmoid()


@register_builder(GELU)
def _build_gelu(m, prefix, sm):
    return lambda x: F.gelu(x)


@register_builder(LeakyReLU)
def _build_leaky_relu(m: LeakyReLU, prefix, sm):
    slope = m.negative_slope
    return lambda x: F.leaky_relu(x, slope)


@register_builder(MaxPool2d)
def _build_max_pool(m: MaxPool2d, prefix, sm):
    k, s = m.kernel_size, m.stride
    return lambda x: max_pool2d_k(x, k, s)


@register_builder(AvgPool2d)
def _build_avg_pool(m: AvgPool2d, prefix, sm):
    k, s = m.kernel_size, m.stride
    return lambda x: avg_pool2d_k(x, k, s)


@register_builder(AdaptiveAvgPool2d)
def _build_adaptive_pool(m: AdaptiveAvgPool2d, prefix, sm):
    if m.output_size != 1:
        raise _Unsupported("adaptive pool with output_size != 1")
    return lambda x: adaptive_avg_pool2d_k(x)


@register_builder(Flatten)
def _build_flatten(m: Flatten, prefix, sm):
    # The leading client axis shifts every dim by one.
    start = m.start_dim + 1
    return lambda x: x.flatten_from(start)


@register_builder(Identity)
def _build_identity(m, prefix, sm):
    return lambda x: x


@register_builder(Dropout)
def _build_dropout(m: Dropout, prefix, sm):
    if m.p > 0:
        # Each client owns a private RNG stream; a stacked mask draw would
        # diverge from the serial order. Fall back to serial training.
        raise _Unsupported("dropout with p > 0")
    return lambda x: x


@register_builder(Sequential)
def _build_sequential(m: Sequential, prefix, sm):
    fns = [
        _build_module(child, _join(prefix, name), sm)
        for name, child in m._modules.items()
    ]

    def fwd(x: Tensor) -> Tensor:
        for fn in fns:
            x = fn(x)
        return x

    return fwd


# -- model zoo ------------------------------------------------------------ #


@register_builder(MLP)
def _build_mlp(m: MLP, prefix, sm):
    return _build_module(m.net, _join(prefix, "net"), sm)


@register_builder(CNN2Layer)
def _build_cnn2(m: CNN2Layer, prefix, sm):
    features = _build_module(m.features, _join(prefix, "features"), sm)
    flatten = _build_module(m.flatten, _join(prefix, "flatten"), sm)
    fc1 = _build_module(m.fc1, _join(prefix, "fc1"), sm)
    fc2 = _build_module(m.fc2, _join(prefix, "fc2"), sm)

    def fwd(x: Tensor) -> Tensor:
        out = flatten(features(x))
        out = fc1(out).relu()
        return fc2(out)

    return fwd


@register_builder(BasicBlock)
def _build_basic_block(m: BasicBlock, prefix, sm):
    conv1 = _build_module(m.conv1, _join(prefix, "conv1"), sm)
    bn1 = _build_module(m.bn1, _join(prefix, "bn1"), sm)
    conv2 = _build_module(m.conv2, _join(prefix, "conv2"), sm)
    bn2 = _build_module(m.bn2, _join(prefix, "bn2"), sm)
    shortcut = _build_module(m.shortcut, _join(prefix, "shortcut"), sm)

    def fwd(x: Tensor) -> Tensor:
        out = bn1(conv1(x)).relu()
        out = bn2(conv2(out))
        out = out + shortcut(x)
        return out.relu()

    return fwd


@register_builder(CifarResNet)
def _build_resnet(m: CifarResNet, prefix, sm):
    stem = _build_module(m.stem, _join(prefix, "stem"), sm)
    bn_stem = _build_module(m.bn_stem, _join(prefix, "bn_stem"), sm)
    blocks = _build_module(m.blocks, _join(prefix, "blocks"), sm)
    pool = _build_module(m.pool, _join(prefix, "pool"), sm)
    flatten = _build_module(m.flatten, _join(prefix, "flatten"), sm)
    fc = _build_module(m.fc, _join(prefix, "fc"), sm)

    def fwd(x: Tensor) -> Tensor:
        out = bn_stem(stem(x)).relu()
        out = blocks(out)
        out = flatten(pool(out))
        return fc(out)

    return fwd


@register_builder(VGG)
def _build_vgg(m: VGG, prefix, sm):
    features = _build_module(m.features, _join(prefix, "features"), sm)
    pool = _build_module(m.pool, _join(prefix, "pool"), sm)
    flatten = _build_module(m.flatten, _join(prefix, "flatten"), sm)
    classifier = _build_module(m.classifier, _join(prefix, "classifier"), sm)

    def fwd(x: Tensor) -> Tensor:
        out = features(x)
        out = flatten(pool(out))
        return classifier(out)

    return fwd
