"""Composite neural-network ops with hand-written backward passes.

Each function here is a *single* autograd node. Building softmax or a
convolution out of primitive ops would create long graphs of temporaries;
fusing them keeps the backward pass short and NumPy-vectorized (the hot loops
are all BLAS matmuls on im2col buffers, per the HPC guide's "vectorize the
bottleneck" rule).

The KL-divergence helpers implement Eq. 2 of the paper, which drives both the
deep-mutual-learning local update (Alg. 1) and the server-side ensemble
distillation (Eq. 4).

Leading client axes: every op here except :func:`dropout` also takes
inputs with extra leading axes — K clients stacked as ``(K, N, …)`` by
:mod:`repro.nn.batched` — and then acts on each leading index exactly as on
its own slice, bit for bit; a loss comes back with the leading shape
``(K,)``. :func:`linear` runs batched matmuls, the losses, batch norm and
the pools reduce over their trailing axes only, and :func:`conv2d` walks the
leading index one client at a time through its 2-D kernels.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn import autograd, profiler
from repro.nn.tensor import Tensor

__all__ = [
    "linear",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "kl_div_with_logits",
    "conv2d",
    "batch_norm2d",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "dropout",
    "im2col_indices",
    "shared_operand",
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

    # A data input (no gradient wanted) skips the ``g @ W`` product.
    input_grad = x.requires_grad

    def bwd(g):
        gx = g @ weight.data if input_grad else None
        gw = np.swapaxes(g, -1, -2) @ x.data
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=-2))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, bwd)


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
    """Zero-copy, read-only (N, C, out_h, out_w, kh, kw) window view of a
    padded input: ``sliding_window_view(...)[:, :, ::s, ::s]`` built as one
    strided view (the same shape and strides, without the generic setup)."""
    n, c, hp, wp = xp.shape
    sn, sc, sh, sw = xp.strides
    shape = (n, c, (hp - kh) // stride + 1, (wp - kw) // stride + 1, kh, kw)
    return as_strided(xp, shape, (sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)


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
    """Fast col2im: fold each of the kh·kw kernel offsets back with one
    vectorized strided add, channel-last, from the GEMM's own layout.

    ``cols`` is the logical (N, F, L) column gradient; :func:`_conv_backward`
    hands over the transposed view of its C-contiguous (N, L, F) product, so
    reading it as (N, out_h, out_w, C, kh, kw) copies nothing. The padded
    buffer is channel-last and phase-split by the stride, ``buf[n, y % s,
    x % s, y // s, x // s, c]`` for padded cell (y, x), so each offset's
    target block keeps (out_w, C) contiguous — one long inner loop per
    output row at every stride. Per padded cell, contributions arrive in
    ascending (ki, kj) order — the order the ``np.add.at`` scatter walks its
    index buffer — so the accumulation is bit-identical to the reference.
    The interior comes back as a fresh C-contiguous NCHW array (s² strided
    copies, one per phase), so later ops see the layout of every other
    gradient and reduce in the same stride order.
    """
    n, c, h, w = x_shape
    s = stride
    out_h = (h + 2 * pad - kh) // s + 1
    out_w = (w + 2 * pad - kw) // s + 1
    nlf = np.ascontiguousarray(cols.transpose(0, 2, 1)).reshape(n, out_h, out_w, c, kh, kw)
    buf = np.zeros((n, s, s, -(-(h + 2 * pad) // s), -(-(w + 2 * pad) // s), c), dtype=cols.dtype)
    for ki in range(kh):
        qi, ri = divmod(ki, s)
        for kj in range(kw):
            qj, rj = divmod(kj, s)
            buf[:, ri, rj, qi : qi + out_h, qj : qj + out_w] += nlf[..., ki, kj]
    out = np.empty(x_shape, dtype=cols.dtype)
    for ry in range(s):
        y0 = (ry - pad) % s  # first interior row of this phase
        qy, ny = (y0 + pad) // s, len(range(y0, h, s))
        for rx in range(s):
            x0 = (rx - pad) % s
            qx, nx = (x0 + pad) // s, len(range(x0, w, s))
            block = buf[:, ry, rx, qy : qy + ny, qx : qx + nx]
            out[:, :, y0::s, x0::s] = block.transpose(0, 3, 1, 2)
    return out


_col2im = _col2im_accumulate  # the one col2im conv2d runs


# The three conv contractions, once, for conv2d (which runs them once per
# client of a stacked input).
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


def _conv_backward(cols: np.ndarray, w2: np.ndarray, gout: np.ndarray, input_grad: bool = True):
    """``cols`` (F, N·L) and upstream ``gout`` (N, OC, L) to ``(gcols, gw2)``:
    the column gradient as a logical (N, F, L) view for :func:`_col2im`
    (``None`` without ``input_grad``) and the (OC, F) weight gradient."""
    n, oc = gout.shape[:2]
    g_rows = gout.transpose(0, 2, 1).reshape(-1, oc)  # (N·L, OC), shared
    gw2 = g_rows.T * cols.T if len(g_rows) == 1 else np.matmul(cols, g_rows).T
    if not input_grad:
        return None, gw2
    gcols = np.matmul(g_rows, w2).reshape(n, -1, len(cols)).transpose(0, 2, 1)
    return gcols, gw2


# The open ``shared_operand`` block: (the owner array of its source, the
# entries keyed by view and geometry), or None outside any block.
_shared: "tuple[np.ndarray, dict] | None" = None

# Cap on the bytes one block holds. A teacher pass over a large public set
# runs it in many eval chunks, one entry each; past the cap a chunk is
# gathered per call as outside the block.
_SHARED_OPERAND_BYTES = 64 << 20


def _owner(a: np.ndarray) -> np.ndarray:
    """The array owning ``a``'s memory (``a`` itself if it is no view)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@contextlib.contextmanager
def shared_operand(x: np.ndarray) -> Iterator[None]:
    """Within the block, :func:`conv2d` gathers the forward operand of an
    input viewing ``x``'s memory once per view and geometry, then reuses it.

    For passes that run many models over the same data: the ensemble
    teacher forwards every member over the public set, so each member's
    first conv would gather the same padded operand again. Only a forward
    with grad off, on an input that does not require grad and whose data is
    a view of ``x``'s owner array, is served; an entry is keyed by the
    view's byte offset into that owner, shape, strides and dtype. The block
    holds the owner, so its memory is never freed and reused under a live
    key, and the same view of it is the same bytes as long as nothing
    writes to ``x`` inside the block. Every other call runs as outside.
    Each GEMM is handed the very operand it would have gathered, so the
    outputs are bit-identical. Entries and the reference to ``x`` are
    dropped on exit.
    """
    global _shared
    prev = _shared
    _shared = (_owner(x), {})
    try:
        yield
    finally:
        _shared = prev


def _forward_operand(
    x: np.ndarray, requires_grad: bool, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray]:
    """conv2d's padded input and forward GEMM operand ``(xp, rows)`` for one
    client's input ``x``, taken from the open :func:`shared_operand` block
    where it serves ``x``."""
    key = None
    if _shared is not None and not requires_grad and not autograd.is_grad_enabled():
        owner, entries = _shared
        if _owner(x) is owner:
            offset = x.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
            key = (offset, x.shape, x.strides, x.dtype.str, kh, kw, stride, pad)
            if key in entries:
                return entries[key]
    xp = _pad_input(x, pad)
    rows = _im2col_rows(xp, kh, kw, stride)
    if key is not None:
        held = sum(r.nbytes for _, r in entries.values())
        if held + rows.nbytes <= _SHARED_OPERAND_BYTES:
            rows.flags.writeable = False  # one array serves every later call
            entries[key] = (xp, rows)
    return xp, rows


def _each_client(lead: tuple[int, ...], fn) -> tuple:
    """Run ``fn(i)`` for every client index ``i`` of the leading shape
    ``lead`` and put the arrays it returns together. One model (``lead``
    empty, a single index ``()``) gets them back as they are, strides and
    all; K clients get one ``lead + shape`` array per entry (``None`` stays
    ``None``), filled client by client."""
    outs = None
    for i in np.ndindex(lead):
        parts = fn(i)
        if not lead:
            return parts
        if outs is None:
            outs = tuple(None if p is None else np.empty(lead + p.shape, p.dtype) for p in parts)
        for out, part in zip(outs, parts):
            if out is not None:
                out[i] = part
    return outs


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

    ``x``: (…, N, C, H, W), ``weight``: (…, OC, C, kh, kw), ``bias``:
    (…, OC), with the same leading axes ``…`` on all three. The one node
    walks them a client at a time through the same 2-D kernels, so every
    client's GEMMs get exactly one model's operands and the im2col
    transients stay one client's size.
    """
    lead = x.data.shape[:-4]
    n, c, h, w = x.data.shape[-4:]
    oc, ic, kh, kw = weight.data.shape[-4:]
    if ic != c or weight.data.shape[:-4] != lead:
        raise ValueError(f"conv2d shape mismatch: input {x.data.shape}, weight {weight.data.shape}")
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    w2 = weight.data.reshape(lead + (oc, -1))  # (…, OC, C*kh*kw)
    # A data input (the first layer's images) skips the column-gradient
    # GEMM and the col2im fold; gw and gb come from the same calls either way.
    input_grad = x.requires_grad
    xps = {}

    def forward(i):
        xps[i], rows = _forward_operand(x.data[i], input_grad, kh, kw, stride, padding)
        out = _conv_forward(rows, w2[i], None if bias is None else bias.data[i], n)
        return (out.reshape(n, oc, out_h, out_w),)

    (out,) = _each_client(lead, forward)
    if profiler.is_counting():
        profiler.add_flops("conv2d", 2 * math.prod(lead) * n * oc * out_h * out_w * c * kh * kw)

    def bwd(g):
        def backward(i):
            gout = g[i].reshape(n, oc, -1)  # (N, OC, L)
            cols = _im2col_cols(xps[i], kh, kw, stride)
            gcols, gw2 = _conv_backward(cols, w2[i], gout, input_grad)
            del cols  # before the fold, so the two transients never coexist
            gx = None if gcols is None else _col2im(gcols, (n, c, h, w), kh, kw, stride, padding)
            gb = None if bias is None else gout.sum(axis=(0, 2))
            return gx, gw2.reshape(oc, c, kh, kw), gb

        gx, gw, gb = _each_client(lead, backward)
        return (gx, gw) if bias is None else (gx, gw, gb)

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
    ``x``: (…, N, C, H, W), the parameters and buffers (…, C).
    """
    n, c, h, w = x.data.shape[-4:]
    axes = (-4, -2, -1)
    per_channel = x.data.shape[:-4] + (1, c, 1, 1)
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
    mean4 = mean.reshape(per_channel)
    inv4 = inv_std.reshape(per_channel)
    xhat = (x.data - mean4) * inv4
    out = gamma.data.reshape(per_channel) * xhat + beta.data.reshape(per_channel)

    if training:

        def bwd(g):
            m = n * h * w
            gamma4 = gamma.data.reshape(per_channel)
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
            gamma4 = gamma.data.reshape(per_channel)
            gx = g * gamma4 * inv4
            ggamma = (g * xhat).sum(axis=axes)
            gbeta = g.sum(axis=axes)
            return gx.astype(x.dtype, copy=False), ggamma, gbeta

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
    """Max pooling over the last two axes; fast path requires
    ``kernel_size == stride`` and spatial dims divisible by the kernel (true
    for every model in the zoo).
    """
    k = kernel_size
    s = stride if stride is not None else k
    h, w = x.data.shape[-2:]
    if s != k or h % k or w % k:
        raise NotImplementedError(
            f"max_pool2d supports kernel==stride with divisible dims; got "
            f"k={k}, s={s}, h={h}, w={w}"
        )
    if profiler.is_counting():
        profiler.add_flops("pool", x.data.size)
    out = _window_max(x.data, k)

    def bwd(g):
        # The winner cells and tie counts are built here, not at forward, so
        # eval-mode forwards (the ensemble teacher hot loop) never pay for
        # them. As in _window_max, one pass per strided window cell: a winner
        # gets g / (tie count), the others 0 · that share (a signed zero, or
        # NaN for an infinite g). Dividing in x's dtype gives the bits of
        # float64(g) / count rounded back: both operands are exact float32
        # values and 53 ≥ 2·24 + 2, so the double rounding is innocuous.
        hits = [x.data[..., i::k, j::k] == out for i in range(k) for j in range(k)]
        counts = hits[0].astype(x.dtype)
        for hit in hits[1:]:
            counts += hit
        share = g / counts  # a NaN window has no winner: count 0, NaN below
        gx = np.empty(x.data.shape, dtype=x.dtype)
        for (i, j), hit in zip(np.ndindex(k, k), hits):
            np.multiply(hit, share, out=gx[..., i::k, j::k])
        return (gx,)

    return Tensor._make(out, (x,), bwd)


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling; same fast-path constraints as :func:`max_pool2d`."""
    k = kernel_size
    s = stride if stride is not None else k
    *planes, h, w = x.data.shape
    if s != k or h % k or w % k:
        raise NotImplementedError(
            f"avg_pool2d supports kernel==stride with divisible dims; got "
            f"k={k}, s={s}, h={h}, w={w}"
        )
    oh, ow = h // k, w // k
    if profiler.is_counting():
        profiler.add_flops("pool", x.data.size)
    out = x.data.reshape(*planes, oh, k, ow, k).mean(axis=(-3, -1))

    def bwd(g):
        g6 = g.reshape(*planes, oh, 1, ow, 1) / (k * k)
        gx = np.broadcast_to(g6, (*planes, oh, k, ow, k)).reshape(x.data.shape)
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), bwd)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only global (1×1) output is needed here."""
    if output_size != 1:
        raise NotImplementedError("only global adaptive average pooling is supported")
    h, w = x.data.shape[-2:]
    if profiler.is_counting():
        profiler.add_flops("pool", x.data.size)
    out = x.data.mean(axis=(-2, -1), keepdims=True)

    def bwd(g):
        gx = np.broadcast_to(g / (h * w), x.data.shape)
        return (gx.astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), bwd)


# ---------------------------------------------------------------------- #
# regularization
# ---------------------------------------------------------------------- #


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity in eval mode, scaled mask in training."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep).astype(x.dtype) / keep
    out = x.data * mask
    return Tensor._make(out, (x,), lambda g: (g * mask,))
