"""The conv and max-pool kernels against their reference oracles.

Equality here is *bitwise* (values compared as integer views, strides
included), not allclose. What carries conv2d's bits is the operands BLAS is
handed, so the oracle is conv-level: ``conv2d`` against the three
``np.einsum(..., optimize=True)`` contractions of the parent kernel — the
einsum spelling lives only in this file — over hand-picked geometries, the
perf workloads' layer shapes and a seeded sample of a 7 050-geometry sweep.
The offset-accumulate col2im is a pure reimplementation of the scatter
reference; finite differences then anchor the whole conv backward to
calculus. The max-pool backward keeps the parent's mask / count / float64
formula as its oracle, and a data input's conv backward is held to the
requires-grad call's parameter gradients.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core import fusion
from repro.core.distill import DistillConfig
from repro.core.ensemble import member_logits
from repro.data.dataset import ArrayDataset
from repro.nn import functional as F
from repro.nn.autograd import no_grad
from repro.nn.batched import build_stacked
from repro.nn.functional import (
    _col2im_accumulate,
    _col2im_scatter,
    _im2col_gather,
    im2col_indices,
)
from repro.nn.layers import Conv2d, MaxPool2d, Sequential
from repro.nn.models import build_model
from repro.nn.tensor import Tensor
from tests.helpers import check_grads

# Odd geometries on purpose: 1x1 kernels, stride > kernel, pad >= kernel,
# non-square-friendly spatial sizes. (n, c, h, w, k, stride, pad)
GEOMETRIES = [
    (2, 3, 8, 8, 3, 1, 1),
    (1, 1, 7, 7, 1, 1, 0),
    (2, 2, 9, 9, 3, 2, 0),
    (3, 2, 8, 8, 3, 2, 1),
    (1, 4, 11, 11, 5, 2, 2),
    (2, 1, 6, 6, 5, 1, 0),
    (1, 2, 5, 5, 1, 2, 1),
    (2, 3, 10, 10, 5, 3, 1),
    # degenerate spatial dims from deep VGG stages at smoke scale: a
    # transposing reshape silently becomes a view here, so these are the
    # geometries where layout (not value) bugs hide
    (2, 16, 1, 1, 3, 1, 1),
    (3, 8, 2, 2, 3, 1, 1),
    # the (kernel, stride, pad) combinations test_conv_invariants.py draws
    # that nothing above compares
    (2, 3, 6, 6, 1, 1, 1),
    (2, 3, 7, 7, 1, 2, 0),
    (2, 3, 8, 8, 3, 1, 0),
]

# Every conv layer the perf workloads run, as (c, h, k, stride, pad, oc):
# resnet-20 at width 0.25 on 16×16 (kemf_conv) and cnn-2 at width 0.25 / 0.5
# (kemf_fusion / fedavg_batched_conv), at a training batch, an odd tail
# batch and the 256-sample evaluation / public-set chunk.
_RESNET20_LAYERS = [
    (3, 16, 3, 1, 1, 4), (4, 16, 3, 1, 1, 4), (4, 16, 3, 2, 1, 8), (4, 16, 1, 2, 0, 8),
    (8, 8, 3, 1, 1, 8), (8, 8, 3, 2, 1, 16), (8, 8, 1, 2, 0, 16), (16, 4, 3, 1, 1, 16),
]
_CNN2_LAYERS = [
    (3, 16, 5, 1, 2, 8), (8, 8, 5, 1, 2, 16), (3, 16, 5, 1, 2, 16), (16, 8, 5, 1, 2, 32),
]
WORKLOAD_LAYERS = [
    (n, c, h, h, k, stride, pad, oc)
    for batches, layers in (((17, 32, 256), _RESNET20_LAYERS), ((16, 256), _CNN2_LAYERS))
    for n in batches
    for c, h, k, stride, pad, oc in layers
]


def _sweep_sample(count=300, seed=23):
    """A seeded sample of the sweep the kernel was designed against; about a
    seventh of it is degenerate (N, L or F of 1)."""
    sweep = [
        (n, c, h, h, k, stride, pad, oc)
        for n, c, h, k, stride, pad, oc in itertools.product(
            (1, 2, 3, 4, 32), (1, 2, 3, 8, 16), (1, 2, 4, 5, 8, 16),
            (1, 3, 5), (1, 2), (0, 1, 2), (1, 2, 8),
        )
        if h + 2 * pad >= k
    ]
    picks = np.random.default_rng(seed).choice(len(sweep), size=count, replace=False)
    return [sweep[i] for i in sorted(picks)]


CONV_CASES = [g + (2,) for g in GEOMETRIES] + WORKLOAD_LAYERS + _sweep_sample()


def _is_degenerate(case):
    n, c, h, w, k, stride, pad, _ = case
    out_h, out_w = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    return n == 1 or out_h * out_w == 1 or c * k * k == 1


def _conv_inputs(case, bias):
    n, c, h, w, k, stride, pad, oc = case
    rng = np.random.default_rng(sum(case))
    out_h, out_w = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    return (
        rng.standard_normal((n, c, h, w)).astype(np.float32),
        (rng.standard_normal((oc, c, k, k)) * 0.5).astype(np.float32),
        rng.standard_normal(oc).astype(np.float32) if bias else None,
        rng.standard_normal((n, oc, out_h, out_w)).astype(np.float32),
    )


def _conv_einsum(x, wt, b, g, stride, pad):
    """The parent commit's conv2d, verbatim: gather-layout columns (batch
    axis fastest) through three optimized einsums."""
    n, c = x.shape[:2]
    oc, _, kh, kw = wt.shape
    win = F._windows(np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))), kh, kw, stride)
    out_h, out_w = win.shape[2:4]
    buf = np.empty((c * kh * kw, out_h * out_w, n), dtype=x.dtype)
    buf.reshape(c, kh, kw, out_h, out_w, n)[...] = win.transpose(1, 4, 5, 2, 3, 0)
    cols = buf.transpose(2, 0, 1)
    w2 = wt.reshape(oc, -1)
    out = np.einsum("of,nfl->nol", w2, cols, optimize=True)
    if b is not None:
        out = out + b.reshape(1, oc, 1)
    out = np.ascontiguousarray(out.reshape(n, oc, out_h, out_w))
    gout = g.reshape(n, oc, -1)
    gw = np.einsum("nol,nfl->of", gout, cols, optimize=True).reshape(wt.shape)
    gcols = np.einsum("of,nol->nfl", w2, gout, optimize=True)
    gx = F._col2im(gcols, x.shape, kh, kw, stride, pad)
    return (out, gx, gw) if b is None else (out, gx, gw, gout.sum(axis=(0, 2)))


def _conv_from_rows(rows_fn, x, wt, b, g, stride, pad):
    """conv2d's array-level kernels fed the forward operand ``rows_fn`` builds."""
    oc, _, kh, kw = wt.shape
    xp, w2 = F._pad_input(x, pad), wt.reshape(oc, -1)
    out = F._conv_forward(rows_fn(xp, kh, kw, stride), w2, b, len(x)).reshape(g.shape)
    gout = g.reshape(len(x), oc, -1)
    gcols, gw2 = F._conv_backward(F._im2col_cols(xp, kh, kw, stride), w2, gout)
    gx = F._col2im(gcols, x.shape, kh, kw, stride, pad)
    gw = gw2.reshape(wt.shape)
    return (out, gx, gw) if b is None else (out, gx, gw, gout.sum(axis=(0, 2)))


def _conv2d(x, wt, b, g, stride, pad, input_grad=True):
    """conv2d's out / gx / gw (/ gb); ``input_grad=False`` makes ``x`` data."""
    xt, wtt = Tensor(x, requires_grad=input_grad), Tensor(wt, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = F.conv2d(xt, wtt, bt, stride=stride, padding=pad)
    out.backward(g)
    return (out.data, xt.grad, wtt.grad) + (() if b is None else (bt.grad,))


def _conv2d_k(x, wt, b, g, stride, pad, input_grad=True):
    """A stacked Conv2d leaf, two clients holding the same slice; returns
    client 1's out / gx / gw (/ gb), gx ``None`` for a data input."""
    oc, c, k, _ = wt.shape
    conv = Conv2d(c, oc, k, stride=stride, padding=pad, bias=b is not None,
                  rng=np.random.default_rng(0))
    sm = build_stacked(Sequential(conv), 2)
    state = {"0.weight": wt} if b is None else {"0.weight": wt, "0.bias": b}
    sm.load_client_states([state, state])
    xt = Tensor(np.stack([x, x]), requires_grad=input_grad)
    out = sm(xt)
    out.backward(np.stack([g, g]))
    return tuple(
        None if t is None else t[1] for t in [out.data, xt.grad] + [p.grad for p in sm.parameters()]
    )


def assert_same_bits(got, want):
    """Same values down to the sign of zero, same shape, same strides."""
    assert len(got) == len(want)
    for name, a, b in zip(("out", "gx", "gw", "gb"), got, want):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        uint = f"u{a.itemsize}"
        np.testing.assert_array_equal(a.view(uint), b.view(uint), err_msg=name)
        assert a.strides == b.strides, f"{name}: {a.strides} vs {b.strides}"


# The oracle is what NumPy >= 2.4's einsum hands BLAS (one matmul per
# contraction); older dispatchers went through tensordot and had other bits.
einsum_oracle = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.4.0", reason="einsum oracle needs NumPy >= 2.4"
)


class TestConvBitwise:
    @einsum_oracle
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    def test_conv2d_matches_parent_einsum(self, bias):
        """The anchor: ``np.einsum`` is gone from the conv path and no bit,
        stride or zero sign of out / gx / gw / gb moved."""
        for case in CONV_CASES:
            inputs, (stride, pad) = _conv_inputs(case, bias), case[5:7]
            assert_same_bits(_conv2d(*inputs, stride, pad), _conv_einsum(*inputs, stride, pad))

    @einsum_oracle
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    def test_reference_operand_matches_parent_einsum(self, bias):
        """The reference operand (gather layout, transposing reshape) is
        itself anchored, on degenerate and ordinary geometries alike."""
        for case in CONV_CASES:
            inputs, (stride, pad) = _conv_inputs(case, bias), case[5:7]
            assert_same_bits(
                _conv_from_rows(F._im2col_rows_reference, *inputs, stride, pad),
                _conv_einsum(*inputs, stride, pad),
            )

    def test_conv2d_matches_reference_conv(self):
        """conv2d ≡ its own kernels fed the reference operand, on any NumPy:
        ordinary geometries by construction of the operand, degenerate ones
        because they take the reference path."""
        for case in CONV_CASES:
            inputs, (stride, pad) = _conv_inputs(case, True), case[5:7]
            assert_same_bits(
                _conv2d(*inputs, stride, pad),
                _conv_from_rows(F._im2col_rows_reference, *inputs, stride, pad),
            )

    def test_fast_operand_matches_reference(self):
        """Where the direct (N·L, F) gather runs it produces the array the
        reference's reshape copies out; degenerate geometries *are* the
        reference, a view with its flags (asserted by equality, not a flag)."""
        degenerate = 0
        for case in CONV_CASES:
            n, c, h, w, k, stride, pad, _ = case
            xp = F._pad_input(_conv_inputs(case, False)[0], pad)
            rows, ref = F._im2col_rows(xp, k, k, stride), F._im2col_rows_reference(xp, k, k, stride)
            np.testing.assert_array_equal(rows.view(np.uint32), ref.view(np.uint32))
            assert (rows.strides, rows.flags.c_contiguous, rows.flags.f_contiguous) == (
                ref.strides, ref.flags.c_contiguous, ref.flags.f_contiguous
            ), case
            degenerate += _is_degenerate(case)
        assert 40 < degenerate < len(CONV_CASES) // 2  # both sides of the rule ran

    def test_stacked_conv_matches_serial(self):
        for case in CONV_CASES[: len(GEOMETRIES) + len(WORKLOAD_LAYERS)]:
            inputs, (stride, pad) = _conv_inputs(case, True), case[5:7]
            got, want = _conv2d_k(*inputs, stride, pad), _conv2d(*inputs, stride, pad)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    @pytest.mark.parametrize("pad", [0, 1, 3])
    def test_pad_input_matches_np_pad(self, pad):
        x = np.random.default_rng(pad).standard_normal((2, 3, 5, 4)).astype(np.float32)
        want = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        got = F._pad_input(x, pad)
        assert_same_bits((got,), (want,))


class TestMaxPoolBitwise:
    """k² elementwise maxima ≡ one two-axis ``max``, as ``uint32`` views, on
    inputs holding ``+0.0`` / ``-0.0`` (what relu's ``x * mask`` makes) and NaN."""

    @staticmethod
    def _inputs(k, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                 k * int(rng.integers(1, 6)), k * int(rng.integers(1, 6)))
        x = rng.standard_normal(shape).astype(np.float32)
        special = rng.random(shape) < 0.5
        x[special] = rng.choice(
            np.array([0.0, -0.0, np.nan, 1.0], dtype=np.float32), size=int(special.sum())
        )
        return x * (x > 0) if seed % 2 else x  # relu's own signed zeros, NaN kept

    @pytest.mark.parametrize("k", [2, 3])
    def test_max_pool2d_matches_two_axis_max(self, k):
        for seed in range(40):
            x = self._inputs(k, seed)
            n, c, h, w = x.shape
            want = x.reshape(n, c, h // k, k, w // k, k).max(axis=(3, 5))
            assert_same_bits((F.max_pool2d(Tensor(x), k).data,), (want,))

    @pytest.mark.parametrize("k", [2, 3])
    def test_max_pool2d_k_matches_two_axis_max(self, k):
        for seed in range(20):
            x = np.stack([self._inputs(k, seed), self._inputs(k, seed)[::-1]])
            kk, n, c, h, w = x.shape
            want = x.reshape(kk, n, c, h // k, k, w // k, k).max(axis=(4, 6))
            stacked = build_stacked(Sequential(MaxPool2d(k)), kk)
            assert_same_bits((stacked(Tensor(x)).data,), (want,))


# A data input (x.requires_grad False) at stride 1 and 2, and at the N, L
# and F = 1 geometries that take the reference operand.
# (n, c, h, w, k, stride, pad, oc)
DATA_INPUT_CASES = [
    (2, 3, 8, 8, 3, 1, 1, 4),
    (3, 2, 9, 9, 3, 2, 0, 4),
    (1, 3, 8, 8, 3, 2, 1, 4),  # N = 1
    (2, 16, 1, 1, 3, 1, 1, 4),  # L = 1
    (3, 1, 7, 7, 1, 2, 0, 3),  # F = 1
    (16, 3, 16, 16, 5, 1, 2, 8),  # cnn-2's first layer
]


class TestConvDataInput:
    """A data input gets no gradient and costs no column-gradient GEMM or
    col2im fold; the weight and bias gradients keep every bit."""

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    def test_parameter_grads_match_and_col2im_is_skipped(self, bias, monkeypatch):
        folds = []

        def counting_col2im(*args):
            folds.append(args[1])
            return _col2im_accumulate(*args)

        monkeypatch.setattr(F, "_col2im", counting_col2im)
        for case in DATA_INPUT_CASES:
            inputs, (stride, pad) = _conv_inputs(case, bias), case[5:7]
            got = _conv2d(*inputs, stride, pad, input_grad=False)
            assert got[1] is None and not folds, case
            want = _conv2d(*inputs, stride, pad)
            assert len(folds) == 1  # the patched fold is the one conv2d runs
            folds.clear()
            assert_same_bits(got[:1] + got[2:], want[:1] + want[2:])

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    def test_stacked_conv_on_data_input_matches_serial(self, bias):
        for case in DATA_INPUT_CASES:
            inputs, (stride, pad) = _conv_inputs(case, bias), case[5:7]
            got = _conv2d_k(*inputs, stride, pad, input_grad=False)
            want = _conv2d(*inputs, stride, pad, input_grad=False)
            assert got[1] is None and want[1] is None
            for a, b in zip(got[:1] + got[2:], want[:1] + want[2:]):
                np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


def _client_inputs(case, bias, seed):
    """Client ``seed``'s own x / weight / bias / upstream gradient for ``case``."""
    n, c, h, w, k, stride, pad, oc = case
    rng = np.random.default_rng([sum(case), seed])
    out_h, out_w = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    return (
        rng.standard_normal((n, c, h, w)).astype(np.float32),
        (rng.standard_normal((oc, c, k, k)) * 0.5).astype(np.float32),
        rng.standard_normal(oc).astype(np.float32) if bias else None,
        rng.standard_normal((n, oc, out_h, out_w)).astype(np.float32),
    )


class TestStackedConvDistinctClients:
    """conv2d on K = 3 stacked clients, each with its own weights, bias,
    input and upstream gradient, ≡ each client's own serial call over every
    ``CONV_CASES`` geometry (the sweep's N, L and F = 1 cases included), for
    a data input and for one that requires grad. Every array is compared as
    bits; out, gx and gb also by strides. The stacked weight gradient is one
    C-ordered (K, …) array, where one model's is the transposed GEMM
    product, so only its bits are compared: the optimizer reads it
    elementwise."""

    @pytest.mark.parametrize("input_grad", [True, False], ids=["grad-input", "data-input"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    def test_each_client_matches_its_serial_call(self, bias, input_grad):
        for case in CONV_CASES:
            stride, pad = case[5:7]
            clients = [_client_inputs(case, bias, seed) for seed in range(3)]
            x, wt, b, g = (None if a[0] is None else np.stack(a) for a in zip(*clients))
            xt, wtt = Tensor(x, requires_grad=input_grad), Tensor(wt, requires_grad=True)
            bt = None if b is None else Tensor(b, requires_grad=True)
            out = F.conv2d(xt, wtt, bt, stride=stride, padding=pad)
            out.backward(g)
            for i, inputs in enumerate(clients):
                want = _conv2d(*inputs, stride, pad, input_grad=input_grad)
                got = [out.data[i], None if xt.grad is None else xt.grad[i], wtt.grad[i]]
                got += [] if bt is None else [bt.grad[i]]
                assert len(got) == len(want)
                for name, a, w in zip(("out", "gx", "gw", "gb"), got, want):
                    if w is None:
                        assert a is None, (case, name)
                        continue
                    assert a.shape == w.shape and a.dtype == w.dtype, (case, name)
                    np.testing.assert_array_equal(
                        a.view(np.uint32), w.view(np.uint32), err_msg=f"{case} {name}"
                    )
                    if name != "gw":
                        assert a.strides == w.strides, (case, name)

    def test_weight_without_the_client_axis_is_refused(self):
        # Reshaping a (2, 3, 3, 3) weight to (K=2, OC, -1) would succeed and
        # hand each client half a filter bank.
        x = Tensor(np.zeros((2, 1, 3, 4, 4), dtype=np.float32))
        for wt in (np.zeros((2, 3, 3, 3)), np.zeros((3, 2, 3, 3, 3)), np.zeros((2, 2, 4, 3, 3))):
            with pytest.raises(ValueError, match="conv2d shape mismatch"):
                F.conv2d(x, Tensor(wt.astype(np.float32)))


def _max_pool_grad_parent(x, out, g, k):
    """The parent commit's max-pool backward, verbatim: a full-size winner
    mask, int64 tie counts over two strided axes and a float64 divide cast
    back to the input dtype."""
    n, c, h, w = x.shape
    oh, ow = h // k, w // k
    windows = x.reshape(n, c, oh, k, ow, k)
    mask = windows == out.reshape(n, c, oh, 1, ow, 1)
    counts = mask.sum(axis=(3, 5), keepdims=True)
    g6 = g.reshape(n, c, oh, 1, ow, 1)
    gx = (mask * g6 / counts).reshape(n, c, h, w)
    return gx.astype(x.dtype, copy=False)


def _pool_case(k, dtype, seed, shape=None):
    """Seeded max-pool input and upstream gradient. Inputs cycle through
    relu outputs (ties of ±0.0), small integers (ties of up to k² cells) and
    values holding ±0.0 and NaN (NaN windows); the gradient is scaled across
    the dtype's range, subnormals included, and holds ±0, ±inf and NaN."""
    rng = np.random.default_rng(seed)
    if shape is None:
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                 k * int(rng.integers(1, 5)), k * int(rng.integers(1, 5)))
    kind = seed % 3
    if kind == 0:
        x = rng.standard_normal(shape)
        x = x * (x > 0)
    elif kind == 1:
        x = rng.integers(-1, 2, size=shape).astype(np.float64)
    else:
        x = rng.standard_normal(shape)
        special = rng.random(shape) < 0.4
        x[special] = rng.choice([0.0, -0.0, np.nan, 1.0], size=int(special.sum()))
    lo, hi = (-44, 38) if dtype == np.float32 else (-320, 307)
    n, c, h, w = shape
    g = rng.standard_normal((n, c, h // k, w // k)) * 10.0 ** rng.uniform(lo, hi)
    special = rng.random(g.shape) < 0.2
    g[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(special.sum()))
    with np.errstate(over="ignore"):
        return x.astype(dtype), g.astype(dtype)


class TestMaxPoolBackwardBitwise:
    """The k² strided-cell backward ≡ the parent's mask / count / float64
    formula, as integer views (NaN payloads and zero signs included), dtype
    and strides."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_max_pool2d_grad_matches_parent(self, k, dtype):
        for seed in range(150):
            x, g = _pool_case(k, dtype, seed)
            xt = Tensor(x, requires_grad=True)
            xt.data = x  # Tensor() casts float64 to float32; keep the dtype
            out = F.max_pool2d(xt, k)
            with np.errstate(all="ignore"):
                out.backward(g)
                want = _max_pool_grad_parent(x, out.data, g, k)
            assert_same_bits((xt.grad,), (want,))

    @pytest.mark.parametrize("k", [2, 3])
    def test_stacked_max_pool2d_grad_matches_parent(self, k):
        for seed in range(60):
            x, g = _pool_case(k, np.float32, seed)
            x2, g2 = _pool_case(k, np.float32, seed + 1000, shape=x.shape)
            stacked = build_stacked(Sequential(MaxPool2d(k)), 2)
            xt = Tensor(np.stack([x, x2]), requires_grad=True)
            out = stacked(xt)
            with np.errstate(all="ignore"):
                out.backward(np.stack([g, g2]))
                for i, (xi, gi) in enumerate(((x, g), (x2, g2))):
                    want = _max_pool_grad_parent(xi, out.data[i], gi, k)
                    assert_same_bits((xt.grad[i],), (want,))

    def test_fuzz_covers_ties_and_nan_windows(self):
        """The cases above reach every tie count from 1 to k² and windows
        with no winner (NaN), so the equality is not vacuous there."""
        for k in (2, 3):
            seen = set()
            for seed in range(150):
                x, _ = _pool_case(k, np.float32, seed)
                n, c, h, w = x.shape
                out = F.max_pool2d(Tensor(x), k).data
                windows = x.reshape(n, c, h // k, k, w // k, k)
                counts = (windows == out.reshape(n, c, h // k, 1, w // k, 1)).sum(axis=(3, 5))
                seen.update(np.unique(counts).tolist())
            assert seen == set(range(k * k + 1))


def _cols_for(geometry, seed=0):
    n, c, h, w, k, stride, pad = geometry
    x = np.random.default_rng(seed).standard_normal((n, c, h, w)).astype(np.float32)
    cols, out_h, out_w = _im2col_gather(x, k, k, stride, pad)
    return x, np.ascontiguousarray(cols), out_h, out_w


class TestFastPathsBitwise:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_im2col_strided_matches_gather(self, geometry):
        n, c, h, w, k, stride, pad = geometry
        x = np.random.default_rng(1).standard_normal((n, c, h, w)).astype(np.float32)
        ref, oh_ref, ow_ref = _im2col_gather(x, k, k, stride, pad)
        fast, oh, ow = F._im2col(x, k, k, stride, pad)
        assert (oh, ow) == (oh_ref, ow_ref)
        # Values only: the layout no longer carries conv2d's bits, the
        # operands do, and TestConvBitwise pins those at conv level.
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_array_equal(
            F._im2col_cols(F._pad_input(x, pad), k, k, stride),
            ref.transpose(1, 0, 2).reshape(c * k * k, -1),
        )

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_col2im_accumulate_matches_scatter(self, geometry):
        n, c, h, w, k, stride, pad = geometry
        x, cols, _, _ = _cols_for(geometry)
        ref = _col2im_scatter(cols, x.shape, k, k, stride, pad)
        fast = _col2im_accumulate(cols, x.shape, k, k, stride, pad)
        # bitwise: both fold kernel offsets in ascending (ki, kj) order
        np.testing.assert_array_equal(fast, ref)
        # ...from any column layout: conv2d hands col2im a transposed view
        view = np.ascontiguousarray(cols.transpose(0, 2, 1)).transpose(0, 2, 1)
        np.testing.assert_array_equal(_col2im_accumulate(view, x.shape, k, k, stride, pad), ref)

    def test_float64_cols_stay_float64(self):
        x, cols, _, _ = _cols_for((2, 2, 6, 6, 3, 1, 1))
        out = _col2im_accumulate(cols.astype(np.float64), x.shape, 3, 3, 1, 1)
        assert out.dtype == np.float64


class TestIndexCacheImmutable:
    def test_cached_indices_are_read_only(self):
        k, i, j, _, _ = im2col_indices(3, 8, 8, 3, 3, 1, 1)
        for arr in (k, i, j, F._im2col_row_index(3, 10, 10, 3, 3, 1)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_mutation_attempt_does_not_poison_cache(self):
        """Regression: lru_cache hands every caller the *same* arrays; a
        writable entry mutated once would corrupt every later conv with
        that geometry."""
        geometry = (2, 7, 7, 3, 3, 2, 1)
        k1, i1, j1, _, _ = im2col_indices(*geometry)
        with pytest.raises(ValueError):
            i1 += 1
        k2, i2, j2, _, _ = im2col_indices(*geometry)
        assert i2 is i1  # same cache entry...
        x = np.random.default_rng(2).standard_normal((1, 2, 7, 7)).astype(np.float32)
        a, _, _ = _im2col_gather(x, 3, 3, 2, 1)
        b, _, _ = F._im2col(x, 3, 3, 2, 1)
        np.testing.assert_array_equal(a, b)  # ...and still correct

    def test_lru_cap_evicts_without_breaking_frozen_entries(self):
        """The memo is bounded (maxsize=256): a flood of distinct geometries
        — e.g. from batched cohort groups — must evict old entries instead
        of growing without limit, and entries recomputed after eviction must
        carry the same read-only invariant and the same values."""
        maxsize = im2col_indices.cache_info().maxsize
        assert maxsize == 256  # the cap this test pins
        im2col_indices.cache_clear()
        geometry = (3, 8, 8, 3, 3, 1, 1)
        k1, i1, j1, oh1, ow1 = im2col_indices(*geometry)
        # Flood the cache past its cap with distinct geometries.
        for h in range(maxsize + 8):
            im2col_indices(1, 8 + h, 8, 3, 3, 1, 1)
        info = im2col_indices.cache_info()
        assert info.currsize <= maxsize  # capped, not unbounded
        # The original entry was evicted; the recomputed one is a *new*
        # object with identical frozen contents.
        k2, i2, j2, oh2, ow2 = im2col_indices(*geometry)
        assert i2 is not i1
        for arr in (k2, i2, j2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        np.testing.assert_array_equal(k2, k1)
        np.testing.assert_array_equal(i2, i1)
        np.testing.assert_array_equal(j2, j1)
        assert (oh2, ow2) == (oh1, ow1)


class TestConvGradcheck:
    """Central-difference gradcheck through the *fast* kernels: conv2d
    backward composes col2im (input grad) and im2col-of-grad (weight grad),
    so this pins both against calculus rather than just the reference."""

    @pytest.mark.parametrize(
        "geometry",
        [
            (2, 2, 6, 6, 3, 1, 1),
            (1, 3, 7, 7, 3, 2, 0),
            (2, 1, 5, 5, 1, 1, 0),
            (1, 2, 8, 8, 5, 2, 1),
            (1, 1, 7, 7, 5, 3, 2),
        ],
    )
    def test_conv2d_grads(self, geometry):
        n, c, hw, _w, k, stride, pad = geometry
        rng = np.random.default_rng(sum(geometry))
        x = Tensor(
            rng.standard_normal((n, c, hw, hw)).astype(np.float32), requires_grad=True
        )
        w = Tensor(
            (rng.standard_normal((2, c, k, k)) * 0.5).astype(np.float32),
            requires_grad=True,
        )
        b = Tensor(rng.standard_normal(2).astype(np.float32), requires_grad=True)
        check_grads(
            lambda: F.conv2d(x, w, b, stride=stride, padding=pad).sum(),
            [x, w, b],
        )


def _public_images(n, seed=5):
    return np.random.default_rng(seed).standard_normal((n, 3, 16, 16)).astype(np.float32)


def _cnn2(seed):
    """A cnn-2 knowledge network at the kemf_fusion width."""
    return build_model(
        "cnn-2", num_classes=10, in_channels=3, image_size=16, width_mult=0.25, seed=seed
    )


@pytest.fixture(scope="module")
def cnn2_members():
    """16 members, as in a kemf_fusion round."""
    return [_cnn2(s) for s in range(16)]


@pytest.fixture
def gathers(monkeypatch):
    """Every ``_im2col_rows`` call conv2d makes, as the padded input's shape."""
    shapes = []
    real = F._im2col_rows

    def counting(xp, kh, kw, stride):
        shapes.append(xp.shape)
        return real(xp, kh, kw, stride)

    monkeypatch.setattr(F, "_im2col_rows", counting)
    return shapes


def _teacher_pass(models, x, chunk):
    return np.stack([member_logits(m, x, batch_size=chunk) for m in models])


def _conv_eval(x, seed=0):
    """One 3→4 k3 p1 conv over ``x`` with grad off; the output array."""
    wt = np.random.default_rng(seed).standard_normal((4, 3, 3, 3)).astype(np.float32)
    with no_grad():
        return F.conv2d(Tensor(x), Tensor(wt), padding=1).data


class TestSharedOperand:
    """``shared_operand`` hands every member's first conv one gathered
    operand and changes no bit; everything else gathers as before."""

    @pytest.mark.parametrize("chunk", [16, 256], ids=["3-chunks", "1-chunk"])
    def test_teacher_logits_match_unshared(self, cnn2_members, chunk):
        x = _public_images(40)
        want = _teacher_pass(cnn2_members, x, chunk)
        with F.shared_operand(x):
            got = _teacher_pass(cnn2_members, x, chunk)
        assert_same_bits((got,), (want,))

    def test_resnet_teacher_logits_match_unshared(self):
        """Batch norm in eval mode, stride-2 stages and k1 shortcuts."""
        models = [
            build_model("resnet-20", num_classes=10, in_channels=3, image_size=16,
                        width_mult=0.25, seed=s)
            for s in range(3)
        ]
        x = _public_images(24, seed=6)
        want = _teacher_pass(models, x, 16)
        with F.shared_operand(x):
            got = _teacher_pass(models, x, 16)
        assert_same_bits((got,), (want,))

    @pytest.mark.parametrize("n_public, chunk, chunks", [(64, 256, 1), (40, 16, 3)])
    def test_fusion_gathers_first_layer_once(
        self, cnn2_members, gathers, monkeypatch, n_public, chunk, chunks
    ):
        """Through ``fuse_ensemble_distill``'s teacher pass: the first conv's
        operand once per public chunk, every later layer once per member."""
        monkeypatch.setattr(fusion, "distill_to_student", lambda *args: 0.0)
        public = ArrayDataset(_public_images(n_public), np.zeros(n_public, dtype=np.int64))
        fusion.fuse_ensemble_distill(
            _cnn2(98), _cnn2(99), [m.state_dict() for m in cnn2_members], None, public, "max",
            DistillConfig(eval_batch_size=chunk), init_from_average=False,
        )
        first = [s for s in gathers if s[1] == 3]
        later = [s for s in gathers if s[1] != 3]
        assert len(first) == chunks
        assert len(later) == len(cnn2_members) * chunks  # cnn-2 has two convs

    def test_input_requiring_grad_is_not_served(self, gathers):
        x = _public_images(4)
        wt = Tensor(np.ones((4, 3, 3, 3), dtype=np.float32))
        with F.shared_operand(x), no_grad():
            for _ in range(2):
                F.conv2d(Tensor(x, requires_grad=True), wt, padding=1)
        assert len(gathers) == 2

    def test_grad_mode_on_is_not_served(self, gathers):
        x = _public_images(4)
        wt = Tensor(np.ones((4, 3, 3, 3), dtype=np.float32), requires_grad=True)
        with F.shared_operand(x):
            for _ in range(2):
                F.conv2d(Tensor(x), wt, padding=1)
        assert len(gathers) == 2

    def test_equal_array_that_is_no_view_is_not_served(self, gathers):
        x = _public_images(4)
        other = x + 1.0  # same shape, strides and dtype, other owner
        with F.shared_operand(x):
            _conv_eval(x)
            got = _conv_eval(other)
        assert len(gathers) == 2
        assert_same_bits((got,), (_conv_eval(other),))

    def test_buffer_at_a_freed_address_is_not_served(self, gathers):
        """The stale hit an address key gave: a later input allocated where
        an earlier, freed one of the same shape lived."""
        x = _public_images(4)
        rng = np.random.default_rng(9)
        with F.shared_operand(x):
            outs, inputs = [], []
            for _ in range(4):
                t = rng.standard_normal(x.shape).astype(np.float32)
                inputs.append(t.copy())
                outs.append(_conv_eval(t))
                del t  # the next draw may land at this address
            served = _conv_eval(x), _conv_eval(x)
        assert len(gathers) == 5  # four inputs, then x once
        for t, out in zip(inputs, outs):
            assert_same_bits((out,), (_conv_eval(t),))
        assert_same_bits(served[1:], served[:1])

    def test_calls_after_the_block_are_not_served(self, gathers):
        x = _public_images(4)
        with F.shared_operand(x):
            _conv_eval(x)
            _conv_eval(x)
        assert len(gathers) == 1
        _conv_eval(x)
        assert len(gathers) == 2

    def test_nothing_survives_the_block(self):
        x = _public_images(8)
        ref = weakref.ref(x)
        with F.shared_operand(x):
            _conv_eval(x)
            _conv_eval(x[:4])
            assert len(F._shared[1]) == 2
        assert F._shared is None
        del x
        gc.collect()
        assert ref() is None

    def test_entries_stop_at_the_byte_cap(self, gathers, monkeypatch):
        """Past the cap a view is gathered per call, as outside the block."""
        x = _public_images(8)
        one_entry = 4 * 16 * 16 * 27 * 4  # rows of a 4-image chunk, bytes
        monkeypatch.setattr(F, "_SHARED_OPERAND_BYTES", one_entry)
        with F.shared_operand(x):
            for _ in range(2):
                _conv_eval(x[:4])
                _conv_eval(x[4:])
        assert len(gathers) == 3  # x[:4] once, x[4:] twice


def _fold_cols(n, c, h, w, k, stride, pad, dtype, seed, layout="gemm"):
    """A seeded column gradient as the logical (N, F, L) array col2im takes.
    Values spread over seven decades, so per-cell sums depend on their
    order; a tenth are subnormal and a twentieth ±0, ±inf or NaN.

    ``layout``: ``"gemm"`` is ``_conv_backward``'s transposed view of a
    C-contiguous (N, L, F) product; ``"nfl"`` a C-contiguous (N, F, L)
    array; ``"strided"`` a view with a step on the F axis."""
    out_h, out_w = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    f, ell = c * k * k, out_h * out_w
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, (n, ell, f))
    vals = (rng.standard_normal((n, ell, f)) * scale).astype(dtype)
    kind = rng.random(vals.shape)
    tiny = np.finfo(dtype).smallest_subnormal * rng.integers(-64, 65, size=vals.shape)
    vals[kind < 0.1] = tiny[kind < 0.1]
    special = kind > 0.95
    vals[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(special.sum()))
    if layout == "gemm":
        return vals.transpose(0, 2, 1)
    if layout == "nfl":
        return np.ascontiguousarray(vals.transpose(0, 2, 1))
    wide = np.zeros((n, 2 * f, ell), dtype=dtype)
    wide[:, ::2] = vals.transpose(0, 2, 1)
    return wide[:, ::2]


# Fold geometries (n, c, h, w, k, stride, pad): every GEOMETRIES entry, the
# stride-2 and stride-3 stages, the k1 s2 shortcuts and N, L, F = 1.
FOLD_GEOMETRIES = GEOMETRIES + [
    (3, 4, 16, 16, 3, 2, 1),  # resnet-20 stage entry
    (2, 8, 8, 8, 3, 2, 1),
    (3, 4, 16, 16, 1, 2, 0),  # k1 s2 shortcuts
    (2, 8, 8, 8, 1, 2, 0),
    (2, 3, 11, 10, 3, 3, 1),  # stride 3, ragged
    (2, 2, 9, 9, 2, 3, 2),
    (1, 3, 9, 7, 3, 2, 1),  # N = 1
    (3, 2, 3, 3, 3, 1, 0),  # L = 1
    (4, 1, 6, 5, 1, 1, 0),  # F = 1
    (1, 1, 1, 1, 1, 1, 0),  # all three
]


def _nan_as_one(a):
    """``a`` with every NaN as the one ``np.nan``: ``np.add.at`` runs another
    NumPy loop than a strided add, and which of two NaN operands survives
    (payload and sign) follows the loop, not the summation order."""
    return np.where(np.isnan(a), np.array(np.nan, dtype=a.dtype), a)


class TestChannelLastFold:
    """The channel-last, phase-split col2im fold ≡ the ``np.add.at``
    scatter, as integer views: sums whose value depends on their order,
    signed zeros, infinities and NaN cells, both dtypes and any layout.
    Every geometry whose windows overlap (k > s, L > 1) fails here under a
    fold that visits (ki, kj) in another order; the others have one
    contribution per cell and pin the indexing."""

    @pytest.mark.parametrize("layout", ["gemm", "nfl", "strided"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_fold_matches_scatter(self, dtype, layout):
        for gi, (n, c, h, w, k, stride, pad) in enumerate(FOLD_GEOMETRIES):
            for seed in range(3):
                cols = _fold_cols(n, c, h, w, k, stride, pad, dtype, 100 * gi + seed, layout)
                with np.errstate(invalid="ignore", over="ignore"):
                    want = _col2im_scatter(cols, (n, c, h, w), k, k, stride, pad)
                    got = _col2im_accumulate(cols, (n, c, h, w), k, k, stride, pad)
                assert got.flags.c_contiguous and got.shape == (n, c, h, w)
                assert_same_bits((_nan_as_one(got),), (_nan_as_one(want),))

    def test_conv_backward_view_is_folded_without_a_column_copy(self):
        """Given ``_conv_backward``'s view the fold allocates its padded
        buffer and the output, never an (N, F, L)-sized copy of the columns
        (the C-contiguous (N, F, L) layout does need one; that is the check
        that the measurement sees such a copy)."""
        n, c, h, w, k, stride, pad = 4, 8, 16, 16, 3, 1, 1
        gout = np.random.default_rng(3).standard_normal((n, 4, h * w)).astype(np.float32)
        w2 = np.random.default_rng(4).standard_normal((4, c * k * k)).astype(np.float32)
        cols_fl = np.zeros((c * k * k, n * h * w), dtype=np.float32)
        gcols, _ = F._conv_backward(cols_fl, w2, gout)
        assert not gcols.flags.c_contiguous
        own = 4 * (n * c * (h + 2 * pad) ** 2 + n * c * h * w)  # buffer + output
        peaks = []
        for cols in (gcols, np.ascontiguousarray(gcols)):
            tracemalloc.start()
            try:
                _col2im_accumulate(cols, (n, c, h, w), k, k, stride, pad)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < own + gcols.nbytes // 4 < peaks[1]
