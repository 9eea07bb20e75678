"""Finite-difference gradient verification for every composite op.

These are the correctness anchor of the whole substrate: if these pass, the
FL training dynamics run on true gradients.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.helpers import check_grads, rand_t


class TestDenseHeads:
    def test_linear(self):
        x = rand_t((4, 5), seed=1)
        w = rand_t((3, 5), seed=2)
        b = rand_t((3,), seed=3)
        check_grads(lambda: (F.linear(x, w, b) ** 2).sum(), [x, w, b])

    def test_linear_no_bias(self):
        x = rand_t((4, 5), seed=4)
        w = rand_t((3, 5), seed=5)
        check_grads(lambda: (F.linear(x, w) ** 2).sum(), [x, w])

    def test_log_softmax(self):
        x = rand_t((5, 7), seed=6, scale=2.0)
        t = np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32)
        check_grads(lambda: (F.log_softmax(x, axis=1) * Tensor(t)).sum(), [x])

    def test_softmax(self):
        x = rand_t((5, 7), seed=7, scale=2.0)
        t = np.random.default_rng(1).standard_normal((5, 7)).astype(np.float32)
        check_grads(lambda: (F.softmax(x, axis=1) * Tensor(t)).sum(), [x])

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_cross_entropy(self, reduction):
        x = rand_t((6, 5), seed=8, scale=2.0)
        y = np.array([0, 1, 2, 3, 4, 0])
        check_grads(lambda: F.cross_entropy(x, y, reduction=reduction), [x])

    @pytest.mark.parametrize("temperature", [1.0, 2.5])
    def test_kl_div(self, temperature):
        teacher = rand_t((5, 4), seed=10, scale=2.0, requires_grad=False)
        student = rand_t((5, 4), seed=11, scale=2.0)
        check_grads(
            lambda: F.kl_div_with_logits(teacher, student, temperature=temperature),
            [student],
        )


class TestConv:
    @pytest.mark.parametrize(
        "n,cin,cout,hw,k,stride,pad",
        [
            (2, 3, 4, 6, 3, 1, 1),
            (1, 2, 3, 5, 3, 2, 1),
            (2, 1, 2, 4, 1, 1, 0),
            (1, 2, 2, 7, 5, 1, 2),
            (2, 3, 2, 6, 3, 3, 0),
        ],
    )
    def test_conv2d_grads(self, n, cin, cout, hw, k, stride, pad):
        x = rand_t((n, cin, hw, hw), seed=20)
        w = rand_t((cout, cin, k, k), seed=21, scale=0.5)
        b = rand_t((cout,), seed=22)
        # mean keeps the loss magnitude small — central differences of a
        # large fp32 sum would be dominated by rounding
        check_grads(
            lambda: (F.conv2d(x, w, b, stride=stride, padding=pad) ** 2).mean(),
            [x, w, b],
        )

    def test_conv2d_matches_naive(self):
        """im2col convolution must equal a direct nested-loop convolution."""
        g = np.random.default_rng(3)
        x = g.standard_normal((2, 3, 5, 5)).astype(np.float32)
        w = g.standard_normal((4, 3, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(out)
        for n in range(2):
            for o in range(4):
                for i in range(5):
                    for j in range(5):
                        ref[n, o, i, j] = np.sum(xp[n, :, i : i + 3, j : j + 3] * w[o])
        np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(rand_t((1, 3, 4, 4)), rand_t((2, 4, 3, 3)))


class TestNormAndPool:
    def test_batch_norm_train_grads(self):
        x = rand_t((3, 2, 4, 4), seed=30)
        gamma = rand_t((2,), seed=31)
        gamma.data += 1.0
        beta = rand_t((2,), seed=32)
        rm = np.zeros(2, dtype=np.float32)
        rv = np.ones(2, dtype=np.float32)

        def f():
            # fresh buffer copies: running-stat updates must not perturb
            # repeated forward evaluations during numeric differentiation
            return (
                F.batch_norm2d(x, gamma, beta, rm.copy(), rv.copy(), training=True) ** 2
            ).sum()

        check_grads(f, [x, gamma, beta])

    def test_batch_norm_eval_grads(self):
        x = rand_t((3, 2, 4, 4), seed=33)
        gamma = rand_t((2,), seed=34)
        beta = rand_t((2,), seed=35)
        rm = np.array([0.3, -0.2], dtype=np.float32)
        rv = np.array([1.5, 0.7], dtype=np.float32)
        check_grads(
            lambda: (F.batch_norm2d(x, gamma, beta, rm, rv, training=False) ** 2).sum(),
            [x, gamma, beta],
        )

    def test_max_pool_grads(self):
        x = rand_t((2, 3, 4, 4), seed=36)
        check_grads(lambda: (F.max_pool2d(x, 2) ** 2).sum(), [x])

    def test_avg_pool_grads(self):
        x = rand_t((2, 3, 4, 4), seed=37)
        check_grads(lambda: (F.avg_pool2d(x, 2) ** 2).sum(), [x])

    def test_adaptive_avg_pool_grads(self):
        x = rand_t((2, 3, 5, 5), seed=38)
        check_grads(lambda: (F.adaptive_avg_pool2d(x) ** 2).sum(), [x])


class TestDropout:
    def test_dropout_grad_matches_mask(self):
        x = rand_t((8, 8), seed=40)
        rng = np.random.default_rng(7)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        mask = (out.data != 0).astype(np.float32)
        np.testing.assert_allclose(x.grad, mask * 2.0, atol=1e-6)
