"""Composite neural-network ops with hand-written backward passes.

Each function here is a *single* autograd node. Building softmax or a
convolution out of primitive ops would create long graphs of temporaries;
fusing them keeps the backward pass short and NumPy-vectorized (the hot loops
are all BLAS matmuls on im2col buffers, per the HPC guide's "vectorize the
bottleneck" rule).

The KL-divergence helpers implement Eq. 2 of the paper, which drives both the
deep-mutual-learning local update (Alg. 1) and the server-side ensemble
distillation (Eq. 4).

Leading client axes: :func:`linear`, :func:`cross_entropy` and
:func:`kl_div_with_logits` also take inputs with extra leading axes — K
clients stacked as ``(K, N, …)`` by :mod:`repro.nn.batched` — and then act
on each leading index exactly as on its 2-D slice, bit for bit; a loss comes
back with the leading shape ``(K,)``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import profiler
from repro.nn.tensor import Tensor, unbroadcast

__all__ = [
    "linear",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "kl_div_with_logits",
    "symmetric_kl_with_logits",
    "mse_loss",
    "conv2d",
    "batch_norm2d",
    "group_norm",
    "layer_norm",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "dropout",
    "gelu",
    "leaky_relu",
    "one_hot",
    "im2col_indices",
]

# ---------------------------------------------------------------------- #
# dense / classification heads
# ---------------------------------------------------------------------- #


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` fused into one node.

    ``x``: (…, N, in), ``weight``: (…, out, in), ``bias``: (…, out), with
    the same leading axes ``…`` on all three (none for one model). Each
    leading index is one matmul on its contiguous slice, so it matches the
    2-D call on that slice bitwise.
    """
    out = x.data @ np.swapaxes(weight.data, -1, -2)
    if bias is not None:
        out = out + bias.data[..., None, :]
    if profiler.is_counting():
        rows = math.prod(x.data.shape[:-1])
        profiler.add_flops("linear", 2 * rows * weight.data.shape[-2] * weight.data.shape[-1])

    if bias is None:

        def bwd(g):
            return g @ weight.data, np.swapaxes(g, -1, -2) @ x.data

        return Tensor._make(out, (x, weight), bwd)

    def bwd_b(g):
        return g @ weight.data, np.swapaxes(g, -1, -2) @ x.data, g.sum(axis=-2)

    return Tensor._make(out, (x, weight, bias), bwd_b)


def _stable_log_softmax(z: np.ndarray, axis: int) -> np.ndarray:
    zmax = z.max(axis=axis, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    out = _stable_log_softmax(x.data, axis)
    soft = np.exp(out)

    def bwd(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    out = np.exp(_stable_log_softmax(x.data, axis))

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._make(out, (x,), bwd)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """Dense one-hot encoding of an integer label vector."""
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with integer labels (Eq. 1 of the paper).

    Fused logits→loss node: backward is the textbook ``softmax - onehot``.
    ``logits``: (…, N, C), ``labels``: (…, N); the loss has shape ``(…)``,
    one batch reduction per leading index.
    """
    labels = np.asarray(labels)
    n = logits.data.shape[-2]
    logp = _stable_log_softmax(logits.data, axis=-1)
    at_label = (*np.indices(labels.shape, sparse=True), labels)
    picked = logp[at_label]
    if reduction == "mean":
        loss = -picked.mean(axis=-1)
        scale = 1.0 / n
    elif reduction == "sum":
        loss = -picked.sum(axis=-1)
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def bwd(g):
        grad = np.exp(logp)
        grad[at_label] -= 1.0
        # The multiplier is ``g · scale`` in float64, rounded to float32 once
        # per leading index — what ``float(g) * scale`` does for one model.
        mult = (g.astype(np.float64) * scale).astype(grad.dtype)
        return (grad * mult[..., None, None],)

    return Tensor._make(np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


def nll_loss(logp: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood over precomputed log-probabilities."""
    labels = np.asarray(labels)
    n = logp.data.shape[0]
    picked = logp.data[np.arange(n), labels]
    if reduction == "mean":
        loss = -picked.mean()
        scale = 1.0 / n
    elif reduction == "sum":
        loss = -picked.sum()
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def bwd(g):
        grad = np.zeros_like(logp.data)
        grad[np.arange(n), labels] = -float(g) * scale
        return (grad,)

    return Tensor._make(np.asarray(loss, dtype=logp.dtype), (logp,), bwd)


def kl_div_with_logits(
    teacher_logits: Tensor | np.ndarray,
    student_logits: Tensor,
    temperature: float = 1.0,
    reduction: str = "batchmean",
) -> Tensor:
    """``D_KL( softmax(teacher) || softmax(student) )`` — Eq. 2 of the paper.

    The teacher distribution is treated as a constant (detached), matching
    deep mutual learning where each network's update only differentiates
    through its *own* logits. Gradient w.r.t. the student logits is the
    exact ``(q - p) · scale / T``; the loss is *not* pre-multiplied by
    Hinton's T² compensation — scale the loss weight if you want it.
    Logits: (…, N, C); the loss has shape ``(…)``, one batch reduction per
    leading index.
    """
    t = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    n = student_logits.data.shape[-2]
    tt = t / temperature
    ss = student_logits.data / temperature
    logp = _stable_log_softmax(tt, axis=-1)
    logq = _stable_log_softmax(ss, axis=-1)
    p = np.exp(logp)
    kl = (p * (logp - logq)).sum(axis=-1)
    if reduction == "batchmean":
        loss = kl.mean(axis=-1)
        scale = 1.0 / n
    elif reduction == "sum":
        loss = kl.sum(axis=-1)
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")
    q = np.exp(logq)
    # d loss / d student_logits = (q - p) * scale / T (exact; callers wanting
    # Hinton's T² loss rescale multiply the loss weight themselves).
    grad_base = (q - p) * (scale / temperature)

    def bwd(g):
        return (grad_base * g.astype(grad_base.dtype)[..., None, None],)

    return Tensor._make(np.asarray(loss, dtype=student_logits.dtype), (student_logits,), bwd)


def symmetric_kl_with_logits(a_logits: Tensor, b_logits: Tensor) -> tuple[Tensor, Tensor]:
    """Both directions of Eq. 2, each detached from the other network.

    Returns ``(D_KL(b||a) for updating a, D_KL(a||b) for updating b)`` as in
    Alg. 1 lines 6–7.
    """
    loss_a = kl_div_with_logits(b_logits.detach(), a_logits)
    loss_b = kl_div_with_logits(a_logits.detach(), b_logits)
    return loss_a, loss_b


def mse_loss(pred: Tensor, target: Tensor | np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean-squared error."""
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=pred.dtype)
    diff = pred.data - t
    if reduction == "mean":
        loss = np.mean(diff * diff)
        scale = 2.0 / diff.size
    elif reduction == "sum":
        loss = np.sum(diff * diff)
        scale = 2.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def bwd(g):
        return (diff * (float(g) * scale),)

    return Tensor._make(np.asarray(loss, dtype=pred.dtype), (pred,), bwd)


# ---------------------------------------------------------------------- #
# convolution (im2col / col2im)
# ---------------------------------------------------------------------- #

# The reference gather/scatter implementations (``_im2col_gather``,
# ``_col2im_scatter``) are kept as the correctness oracle: tests diff the
# fast paths against them bitwise. Nothing at run time selects them.


@functools.lru_cache(maxsize=256)
def im2col_indices(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Precompute gather indices turning (N,C,H,W) into im2col columns.

    Returns ``(k, i, j, out_h, out_w)`` where indexing a padded input with
    ``x[:, k, i, j]`` yields shape ``(N, C*kh*kw, out_h*out_w)``. Cached per
    geometry — the FL simulator reuses a handful of shapes thousands of
    times, and every caller shares the same arrays, so the cached entries
    are frozen read-only (a caller mutating ``k``/``i``/``j`` would
    otherwise silently corrupt every later conv with that geometry).
    """
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    for arr in (k, i, j):
        arr.setflags(write=False)
    return k, i, j, out_h, out_w


def _pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, :, pad:-pad, pad:-pad] = x
    return padded


def _im2col_gather(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Reference im2col: one fancy-index gather per call."""
    n, c, h, w = x.shape
    k, i, j, out_h, out_w = im2col_indices(c, h, w, kh, kw, stride, pad)
    cols = _pad_input(x, pad)[:, k, i, j]  # (N, C*kh*kw, out_h*out_w)
    return cols, out_h, out_w


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Zero-copy (N, C, out_h, out_w, kh, kw) window view of a padded input."""
    return sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]


@functools.lru_cache(maxsize=256)
def _im2col_row_index(c: int, hp: int, wp: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat (L·F,) gather index into one padded (C, hp, wp) sample: entry
    ``l·F + f`` is where window ``l`` reads element ``f = (c, ki, kj)``.
    Cached per geometry and frozen, like :func:`im2col_indices`."""
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    offset = (np.arange(c)[:, None, None] * hp + np.arange(kh)[:, None]) * wp + np.arange(kw)
    corner = stride * (np.arange(out_h)[:, None] * wp + np.arange(out_w))
    index = (corner.reshape(-1, 1) + offset.reshape(1, -1)).reshape(-1)
    index.setflags(write=False)
    return index


def _im2col_rows_reference(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The (N·L, F) conv operand exactly as ``einsum("of,nfl->nol")`` derived
    it from the gather's layout (physically (F, L, N), batch fastest): a
    transposing ``reshape``, which copies to C order unless N, L or F is 1 —
    then it returns a *view*, and BLAS is handed other transposition flags."""
    win = _windows(xp, kh, kw, stride)
    n, c, out_h, out_w = win.shape[:4]
    buf = np.empty((c * kh * kw, out_h * out_w, n), dtype=xp.dtype)
    buf.reshape(c, kh, kw, out_h, out_w, n)[...] = win.transpose(1, 4, 5, 2, 3, 0)
    return buf.transpose(2, 1, 0).reshape(n * out_h * out_w, c * kh * kw)


def _im2col_rows(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The forward GEMM operand ``rows[n·L + l, f]``, ``f`` running over
    (c, ki, kj): C-contiguous, one gather per sample through a cached index.

    Degenerate geometries (N, L or F of 1: deep VGG stages at smoke scale,
    single-sample evaluation tails) are tiny and keep the reference operand,
    whose bits come from a view's flags rather than from this layout.
    """
    n, c, hp, wp = xp.shape
    index, f = _im2col_row_index(c, hp, wp, kh, kw, stride), c * kh * kw
    if 1 in (n, len(index) // f, f):  # N, L or F
        return _im2col_rows_reference(xp, kh, kw, stride)
    return np.take(xp.reshape(n, -1), index, axis=1).reshape(-1, f)


def _im2col_cols(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The weight-gradient GEMM operand: the C-contiguous (F, N·L) transpose
    of :func:`_im2col_rows`, one strided copy of the window view (the output
    row is the contiguous axis on both sides; transposing rows is far dearer)."""
    win = _windows(xp, kh, kw, stride)
    n, c, out_h, out_w = win.shape[:4]
    cols = np.empty((c * kh * kw, n * out_h * out_w), dtype=xp.dtype)
    cols.reshape(c, kh, kw, n, out_h, out_w)[...] = win.transpose(1, 4, 5, 0, 2, 3)
    return cols


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """``(cols, out_h, out_w)`` with ``cols`` the logical (N, F, L) view of
    :func:`_im2col_rows` — the gather's signature, for probes and tests."""
    n, _, h, w = x.shape
    out_h, out_w = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    rows = _im2col_rows(_pad_input(x, pad), kh, kw, stride)
    return rows.reshape(n, out_h * out_w, -1).transpose(0, 2, 1), out_h, out_w


def _col2im_scatter(
    cols: np.ndarray, x_shape: tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Reference col2im: ``np.add.at`` scatter (slow, unbuffered)."""
    n, c, h, w = x_shape
    k, i, j, _, _ = im2col_indices(c, h, w, kh, kw, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    np.add.at(padded, (slice(None), k, i, j), cols)
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def _col2im_accumulate(
    cols: np.ndarray, x_shape: tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Fast col2im: reshape the columns to (N, C, kh, kw, OH, OW) and fold
    each of the kh·kw kernel offsets back with one vectorized strided add.

    Replaces the element-wise ``np.add.at`` scatter (typically 5–20× on this
    op). Per output cell, contributions arrive in ascending (ki, kj) order —
    the same order the scatter walks its index buffer — so the float32
    accumulation is bit-identical to the reference.
    """
    n, c, h, w = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    # conv2d's column gradient arrives as a transposed view; one blocked
    # copy to C order first makes each of the kh·kw folds a contiguous read.
    cols6 = np.ascontiguousarray(cols).reshape(n, c, kh, kw, out_h, out_w)
    for ki in range(kh):
        hi = ki + stride * (out_h - 1) + 1
        for kj in range(kw):
            wi = kj + stride * (out_w - 1) + 1
            padded[:, :, ki:hi:stride, kj:wi:stride] += cols6[:, :, ki, kj]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


_col2im = _col2im_accumulate  # the one col2im conv2d runs


# The three conv contractions, once, for conv2d (nn.batched's stacked
# Conv2d runs conv2d itself on each client slice).
# They hand BLAS the operands the parent's ``einsum(optimize=True)`` ended
# up handing it, and operand arrangement is part of the bits: OpenBLAS picks
# small-matrix kernels by transposition flag, so ``(O,F) @ (F,N·L)`` or a
# ``.T`` view in place of a contiguous copy moves the last ulp. Where a
# contraction runs over a single element einsum multiplied instead (no
# accumulator, so a product of -0.0 keeps its sign); those cases do too.


def _conv_forward(rows: np.ndarray, w2: np.ndarray, bias: np.ndarray | None, n: int) -> np.ndarray:
    """``rows`` (N·L, F) and ``w2`` (OC, F) to the (N, OC, L) output, C-ordered."""
    oc, f = w2.shape
    res = rows * w2.T if f == 1 else np.matmul(rows, w2.T)  # (N·L, OC)
    res = res.reshape(n, -1, oc).transpose(0, 2, 1)
    # One pass lands the channel-fastest product (plus bias) in C order, so
    # downstream multi-axis reductions (BatchNorm statistics, pool means)
    # reduce in one stride order on the serial and the stacked path alike.
    out = np.empty(res.shape, dtype=res.dtype)
    if bias is None:
        out[...] = res
    else:
        np.add(res, bias.reshape(oc, 1), out=out)
    return out


def _conv_backward(cols: np.ndarray, w2: np.ndarray, gout: np.ndarray):
    """``cols`` (F, N·L) and upstream ``gout`` (N, OC, L) to ``(gcols, gw2)``:
    the column gradient as a logical (N, F, L) view for :func:`_col2im` and
    the (OC, F) weight gradient."""
    n, oc = gout.shape[:2]
    g_rows = gout.transpose(0, 2, 1).reshape(-1, oc)  # (N·L, OC), shared
    gw2 = g_rows.T * cols.T if len(g_rows) == 1 else np.matmul(cols, g_rows).T
    gcols = np.matmul(g_rows, w2).reshape(n, -1, len(cols)).transpose(0, 2, 1)
    return gcols, gw2


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution, NCHW layout, square kernel/stride/padding.

    Forward and backward are both expressed as one big matmul over im2col
    operands, so the arithmetic lands in BLAS.
    """
    n, c, h, w = x.data.shape
    oc, ic, kh, kw = weight.data.shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {ic}")
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    xp = _pad_input(x.data, padding)
    w2 = weight.data.reshape(oc, -1)  # (OC, C*kh*kw)
    out = _conv_forward(
        _im2col_rows(xp, kh, kw, stride), w2, None if bias is None else bias.data, n
    ).reshape(n, oc, out_h, out_w)
    if profiler.is_counting():
        profiler.add_flops("conv2d", 2 * n * oc * out_h * out_w * c * kh * kw)

    def bwd(g):
        gout = g.reshape(n, oc, -1)  # (N, OC, L)
        gcols, gw2 = _conv_backward(_im2col_cols(xp, kh, kw, stride), w2, gout)
        gx = _col2im(gcols, (n, c, h, w), kh, kw, stride, padding)
        gw = gw2.reshape(weight.data.shape)
        if bias is None:
            return gx, gw
        return gx, gw, gout.sum(axis=(0, 2))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, bwd)


# ---------------------------------------------------------------------- #
# normalization
# ---------------------------------------------------------------------- #


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (N, H, W) per channel.

    In training mode, batch statistics are used and ``running_*`` buffers are
    updated in place (exponential moving average). In eval mode the running
    statistics are used and the op is a plain affine transform.
    """
    n, c, h, w = x.data.shape
    axes = (0, 2, 3)
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = n * h * w
        # update running buffers in place (unbiased variance like torch)
        unbiased = var * (m / max(m - 1, 1))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    if profiler.is_counting():
        profiler.add_flops("batchnorm", 4 * x.data.size)
    inv_std = 1.0 / np.sqrt(var + eps)
    mean4 = mean.reshape(1, c, 1, 1)
    inv4 = inv_std.reshape(1, c, 1, 1)
    xhat = (x.data - mean4) * inv4
    out = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)

    if training:

        def bwd(g):
            m = n * h * w
            gamma4 = gamma.data.reshape(1, c, 1, 1)
            dxhat = g * gamma4
            # standard batchnorm backward
            sum_dxhat = dxhat.sum(axis=axes, keepdims=True)
            sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes, keepdims=True)
            gx = (inv4 / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
            ggamma = (g * xhat).sum(axis=axes)
            gbeta = g.sum(axis=axes)
            return gx.astype(x.dtype, copy=False), ggamma, gbeta

    else:

        def bwd(g):
            gamma4 = gamma.data.reshape(1, c, 1, 1)
            gx = g * gamma4 * inv4
            ggamma = (g * xhat).sum(axis=axes)
            gbeta = g.sum(axis=axes)
            return gx.astype(x.dtype, copy=False), ggamma, gbeta

    return Tensor._make(out.astype(x.dtype, copy=False), (x, gamma, beta), bwd)


def _normalize_grads(g, xhat, inv_std, axes, m):
    """Shared backward for statistics-normalizing ops (LN/GN/BN share it)."""
    sum_g = g.sum(axis=axes, keepdims=True)
    sum_g_xhat = (g * xhat).sum(axis=axes, keepdims=True)
    return (inv_std / m) * (m * g - sum_g - xhat * sum_g_xhat)


def group_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    num_groups: int,
    eps: float = 1e-5,
) -> Tensor:
    """Group normalization (Wu & He 2018) over (N, C, H, W).

    Batch-size independent, so unlike BatchNorm it behaves identically on
    tiny non-IID client shards — the standard FL-friendly normalizer
    (offered as an extension; the paper's models use BN).
    """
    n, c, h, w = x.data.shape
    if c % num_groups:
        raise ValueError(f"channels ({c}) not divisible by groups ({num_groups})")
    gshape = (n, num_groups, c // num_groups, h, w)
    xg = x.data.reshape(gshape)
    axes = (2, 3, 4)
    mean = xg.mean(axis=axes, keepdims=True)
    var = xg.var(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat_g = (xg - mean) * inv_std
    xhat = xhat_g.reshape(n, c, h, w)
    out = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)
    m = (c // num_groups) * h * w
    if profiler.is_counting():
        profiler.add_flops("groupnorm", 4 * x.data.size)

    def bwd(g):
        dxhat = (g * gamma.data.reshape(1, c, 1, 1)).reshape(gshape)
        gx = _normalize_grads(dxhat, xhat_g, inv_std, axes, m).reshape(n, c, h, w)
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        return gx.astype(x.dtype, copy=False), ggamma, gbeta

    return Tensor._make(out.astype(x.dtype, copy=False), (x, gamma, beta), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis of (N, D) features."""
    if x.data.ndim != 2:
        raise ValueError(f"layer_norm expects (N, D) input; got {x.data.shape}")
    d = x.data.shape[1]
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    out = gamma.data * xhat + beta.data
    if profiler.is_counting():
        profiler.add_flops("layernorm", 4 * x.data.size)

    def bwd(g):
        dxhat = g * gamma.data
        gx = _normalize_grads(dxhat, xhat, inv_std, (1,), d)
        return (
            gx.astype(x.dtype, copy=False),
            (g * xhat).sum(axis=0),
            g.sum(axis=0),
        )

    return Tensor._make(out.astype(x.dtype, copy=False), (x, gamma, beta), bwd)


# ---------------------------------------------------------------------- #
# pooling
# ---------------------------------------------------------------------- #


def _window_max(x: np.ndarray, k: int) -> np.ndarray:
    """Max over the non-overlapping k×k windows of the last two axes: k²
    elementwise ``np.maximum`` passes over strided slices instead of one
    two-axis reduce (max has no reduction order, so the bits are the same)."""
    cells = [x[..., i::k, j::k] for i in range(k) for j in range(k)]
    out = cells[0].copy()
    for cell in cells[1:]:
        np.maximum(out, cell, out=out)
    return out


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling; fast path requires ``kernel_size == stride`` and
    spatial dims divisible by the kernel (true for every model in the zoo).
    """
    k = kernel_size
    s = stride if stride is not None else k
    n, c, h, w = x.data.shape
    if s != k or h % k or w % k:
        raise NotImplementedError(
            f"max_pool2d supports kernel==stride with divisible dims; got "
            f"k={k}, s={s}, h={h}, w={w}"
        )
    oh, ow = h // k, w // k
    if profiler.is_counting():
        profiler.add_flops("pool", x.data.size)
    out = _window_max(x.data, k)

    def bwd(g):
        windows = x.data.reshape(n, c, oh, k, ow, k)
        # The winner mask and tie counts are only needed for the gradient,
        # so they are built lazily here — eval-mode forwards (the ensemble
        # teacher hot loop) never pay for the two full-size temporaries.
        mask = windows == out.reshape(n, c, oh, 1, ow, 1)
        counts = mask.sum(axis=(3, 5), keepdims=True)
        g6 = g.reshape(n, c, oh, 1, ow, 1)
        gx = (mask * g6 / counts).reshape(n, c, h, w)
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), bwd)


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling; same fast-path constraints as :func:`max_pool2d`."""
    k = kernel_size
    s = stride if stride is not None else k
    n, c, h, w = x.data.shape
    if s != k or h % k or w % k:
        raise NotImplementedError(
            f"avg_pool2d supports kernel==stride with divisible dims; got "
            f"k={k}, s={s}, h={h}, w={w}"
        )
    oh, ow = h // k, w // k
    if profiler.is_counting():
        profiler.add_flops("pool", x.data.size)
    out = x.data.reshape(n, c, oh, k, ow, k).mean(axis=(3, 5))

    def bwd(g):
        g6 = g.reshape(n, c, oh, 1, ow, 1) / (k * k)
        gx = np.broadcast_to(g6, (n, c, oh, k, ow, k)).reshape(n, c, h, w)
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), bwd)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only global (1×1) output is needed here."""
    if output_size != 1:
        raise NotImplementedError("only global adaptive average pooling is supported")
    n, c, h, w = x.data.shape
    if profiler.is_counting():
        profiler.add_flops("pool", x.data.size)
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def bwd(g):
        gx = np.broadcast_to(g / (h * w), (n, c, h, w))
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), bwd)


# ---------------------------------------------------------------------- #
# regularization
# ---------------------------------------------------------------------- #


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (Hendrycks & Gimpel 2016).

    y = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))); backward is the exact
    derivative of this approximation.
    """
    c = np.float32(np.sqrt(2.0 / np.pi))
    a = np.float32(0.044715)
    x3 = x.data**3
    inner = c * (x.data + a * x3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)

    def bwd(g):
        sech2 = 1.0 - t * t
        dinner = c * (1.0 + 3.0 * a * x.data * x.data)
        grad = 0.5 * (1.0 + t) + 0.5 * x.data * sech2 * dinner
        return (g * grad.astype(x.dtype, copy=False),)

    return Tensor._make(out.astype(x.dtype, copy=False), (x,), bwd)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU: x for x>0, slope·x otherwise."""
    mask = x.data > 0
    scale = np.where(mask, np.float32(1.0), np.float32(negative_slope))
    out = x.data * scale
    return Tensor._make(out, (x,), lambda g: (g * scale,))


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity in eval mode, scaled mask in training."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep).astype(x.dtype) / keep
    out = x.data * mask
    return Tensor._make(out, (x,), lambda g: (g * mask,))
