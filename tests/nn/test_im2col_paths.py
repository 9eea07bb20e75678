"""The conv and max-pool kernels against their reference oracles.

Equality here is *bitwise* (values compared as integer views, strides
included), not allclose. What carries conv2d's bits is the operands BLAS is
handed, so the oracle is conv-level: ``conv2d`` against the three
``np.einsum(..., optimize=True)`` contractions of the parent kernel — the
einsum spelling lives only in this file — over hand-picked geometries, the
perf workloads' layer shapes and a seeded sample of a 7 050-geometry sweep.
The offset-accumulate col2im is a pure reimplementation of the scatter
reference; finite differences then anchor the whole conv backward to
calculus.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.batched import build_stacked
from repro.nn.functional import (
    _col2im_accumulate,
    _col2im_scatter,
    _im2col_gather,
    im2col_indices,
)
from repro.nn.layers import Conv2d, MaxPool2d, Sequential
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


def _conv2d(x, wt, b, g, stride, pad):
    xt, wtt = Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = F.conv2d(xt, wtt, bt, stride=stride, padding=pad)
    out.backward(g)
    return (out.data, xt.grad, wtt.grad) + (() if b is None else (bt.grad,))


def _conv2d_k(x, wt, b, g, stride, pad):
    """A stacked Conv2d leaf, two clients holding the same slice; returns
    client 1's out / gx / gw (/ gb)."""
    oc, c, k, _ = wt.shape
    conv = Conv2d(c, oc, k, stride=stride, padding=pad, bias=b is not None,
                  rng=np.random.default_rng(0))
    sm = build_stacked(Sequential(conv), 2)
    state = {"0.weight": wt} if b is None else {"0.weight": wt, "0.bias": b}
    sm.load_client_states([state, state])
    xt = Tensor(np.stack([x, x]), requires_grad=True)
    out = sm(xt)
    out.backward(np.stack([g, g]))
    return tuple(t[1] for t in [out.data, xt.grad] + [p.grad for p in sm.parameters()])


def assert_same_bits(got, want):
    """Same values down to the sign of zero, same shape, same strides."""
    assert len(got) == len(want)
    for name, a, b in zip(("out", "gx", "gw", "gb"), got, want):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32), err_msg=name)
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
