"""Value-level tests for composite ops (shapes, identities, invariants)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.helpers import rand_t


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        x = rand_t((6, 9), seed=1, scale=5.0, requires_grad=False)
        s = F.softmax(x, axis=1).data
        np.testing.assert_allclose(s.sum(axis=1), np.ones(6), atol=1e-5)
        assert (s >= 0).all()

    def test_log_softmax_matches_log_of_softmax(self):
        x = rand_t((4, 5), seed=2, scale=3.0, requires_grad=False)
        np.testing.assert_allclose(
            F.log_softmax(x, axis=1).data,
            np.log(F.softmax(x, axis=1).data),
            atol=1e-5,
        )

    def test_stability_with_huge_logits(self):
        x = Tensor(np.array([[1e4, 0.0, -1e4]], dtype=np.float32))
        out = F.log_softmax(x, axis=1).data
        assert np.isfinite(out).all()

    def test_shift_invariance(self):
        x = rand_t((3, 4), seed=3, requires_grad=False)
        shifted = Tensor(x.data + 100.0)
        np.testing.assert_allclose(
            F.softmax(x, axis=1).data, F.softmax(shifted, axis=1).data, atol=1e-5
        )


class TestCrossEntropy:
    def test_matches_manual(self):
        x = rand_t((5, 4), seed=4, requires_grad=False)
        y = np.array([0, 1, 2, 3, 0])
        logp = F.log_softmax(x, axis=1).data
        manual = -logp[np.arange(5), y].mean()
        assert abs(F.cross_entropy(x, y).item() - manual) < 1e-6

    def test_uniform_logits_give_log_c(self):
        x = Tensor(np.zeros((3, 10), dtype=np.float32))
        assert abs(F.cross_entropy(x, np.array([0, 5, 9])).item() - np.log(10)) < 1e-5

    def test_perfect_prediction_near_zero(self):
        x = Tensor(np.eye(4, dtype=np.float32) * 50)
        assert F.cross_entropy(x, np.arange(4)).item() < 1e-4

    def test_bad_reduction_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(rand_t((2, 2)), np.array([0, 1]), reduction="median")


class TestKL:
    def test_zero_for_identical_distributions(self):
        x = rand_t((5, 6), seed=5, requires_grad=False)
        s = Tensor(x.data.copy(), requires_grad=True)
        assert abs(F.kl_div_with_logits(x, s).item()) < 1e-6

    def test_nonnegative(self):
        for seed in range(5):
            t = rand_t((4, 5), seed=seed, scale=3.0, requires_grad=False)
            s = rand_t((4, 5), seed=seed + 100, scale=3.0)
            assert F.kl_div_with_logits(t, s).item() >= -1e-6

    def test_teacher_not_differentiated(self):
        t = rand_t((3, 4), seed=6)
        s = rand_t((3, 4), seed=7)
        F.kl_div_with_logits(t, s).backward()
        assert t.grad is None and s.grad is not None

    def test_temperature_softens(self):
        t = rand_t((4, 5), seed=10, scale=4.0, requires_grad=False)
        s = rand_t((4, 5), seed=11, scale=4.0)
        hot = F.kl_div_with_logits(t, s, temperature=1.0).item()
        cool = F.kl_div_with_logits(t, s, temperature=10.0).item()
        assert cool < hot  # high temperature flattens both distributions

    def test_shape_mismatch_teacher_np(self):
        # teacher may be a plain ndarray
        t = np.zeros((2, 3), dtype=np.float32)
        s = rand_t((2, 3), seed=12)
        assert F.kl_div_with_logits(t, s).item() >= 0


# Leading axes: one client axis (a stack of 3), or two.
LEADS = [pytest.param((3,), id="k3"), pytest.param((2, 3), id="2x3")]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestLeadingAxis:
    """``F.linear`` and the two losses on inputs with leading client axes
    equal one 2-D call per leading index, bit for bit: output, loss and
    every gradient, under per-index upstream grads that are not all 1."""

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("lead", LEADS)
    def test_linear(self, lead, bias):
        rng = np.random.default_rng(0)

        def stack(*shape):
            return Tensor(rng.standard_normal(lead + shape).astype(np.float32), requires_grad=True)

        x, w, b = stack(5, 7), stack(4, 7), stack(4) if bias else None
        out = F.linear(x, w, b)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        for i in np.ndindex(lead):
            xi = Tensor(x.data[i], requires_grad=True)
            wi = Tensor(w.data[i], requires_grad=True)
            bi = None if b is None else Tensor(b.data[i], requires_grad=True)
            ref = F.linear(xi, wi, bi)
            ref.backward(g[i])
            _same_bits(out.data[i], ref.data)
            _same_bits(x.grad[i], xi.grad)
            _same_bits(w.grad[i], wi.grad)
            if bias:
                _same_bits(b.grad[i], bi.grad)

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("lead", [pytest.param((), id="2d")] + LEADS)
    def test_linear_data_input(self, lead, bias):
        """A data input gets no gradient (the ``g @ W`` product is skipped)
        and the weight and bias gradients keep every bit."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal(lead + (5, 7)).astype(np.float32)
        w = rng.standard_normal(lead + (4, 7)).astype(np.float32)
        b = rng.standard_normal(lead + (4,)).astype(np.float32) if bias else None
        g = rng.standard_normal(lead + (5, 4)).astype(np.float32)
        runs = []
        for input_grad in (False, True):
            xt, wt = Tensor(x, requires_grad=input_grad), Tensor(w, requires_grad=True)
            bt = None if b is None else Tensor(b, requires_grad=True)
            out = F.linear(xt, wt, bt)
            if not input_grad:
                assert out._backward_fn(g)[0] is None
            out.backward(g)
            runs.append((xt.grad, out.data, wt.grad) + (() if b is None else (bt.grad,)))
        (x_grad, *got), (_, *want) = runs
        assert x_grad is None
        for got_one, want_one in zip(got, want):
            _same_bits(got_one, want_one)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("lead", LEADS)
    def test_cross_entropy(self, lead, reduction):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.standard_normal(lead + (6, 5)).astype(np.float32), requires_grad=True)
        labels = rng.integers(0, 5, size=lead + (6,))
        upstream = np.resize(np.float32([0.3, 0.75, 1.0]), lead)
        loss = F.cross_entropy(logits, labels, reduction=reduction)
        assert loss.shape == lead
        loss.backward(upstream)
        scale = 1.0 / 6 if reduction == "mean" else 1.0
        for i in np.ndindex(lead):
            li = Tensor(logits.data[i], requires_grad=True)
            ref = F.cross_entropy(li, labels[i], reduction=reduction)
            ref.backward(upstream[i])
            _same_bits(loss.data[i], ref.data)
            _same_bits(logits.grad[i], li.grad)
            # One model's gradient: softmax - onehot, times float(g) · scale
            # rounded to float32 once.
            want = F.softmax(Tensor(logits.data[i])).data
            want[np.arange(6), labels[i]] -= 1.0
            _same_bits(li.grad, want * np.float32(float(upstream[i]) * scale))

    @pytest.mark.parametrize("temperature", [1.0, 2.0])
    @pytest.mark.parametrize("reduction", ["batchmean", "sum"])
    @pytest.mark.parametrize("lead", LEADS)
    def test_kl_div_with_logits(self, lead, reduction, temperature):
        rng = np.random.default_rng(5)
        teacher = Tensor(rng.standard_normal(lead + (6, 5)).astype(np.float32))
        student = Tensor(rng.standard_normal(lead + (6, 5)).astype(np.float32), requires_grad=True)
        upstream = np.resize(np.float32([0.3, 0.75, 1.0]), lead)
        kl = F.kl_div_with_logits(teacher, student, temperature, reduction)
        assert kl.shape == lead
        kl.backward(upstream)
        for i in np.ndindex(lead):
            si = Tensor(student.data[i], requires_grad=True)
            ref = F.kl_div_with_logits(Tensor(teacher.data[i]), si, temperature, reduction)
            ref.backward(upstream[i])
            _same_bits(kl.data[i], ref.data)
            _same_bits(student.grad[i], si.grad)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2).data
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2).data
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_adaptive_pool_is_mean(self):
        x = rand_t((2, 3, 4, 4), seed=13, requires_grad=False)
        np.testing.assert_allclose(
            F.adaptive_avg_pool2d(x).data[..., 0, 0], x.data.mean(axis=(2, 3)), atol=1e-6
        )

    def test_indivisible_raises(self):
        with pytest.raises(NotImplementedError):
            F.max_pool2d(rand_t((1, 1, 5, 5)), 2)
        with pytest.raises(NotImplementedError):
            F.avg_pool2d(rand_t((1, 1, 6, 6)), 2, stride=1)
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(rand_t((1, 1, 4, 4)), 2)


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        x = rand_t((8, 3, 5, 5), seed=14, scale=4.0, requires_grad=False)
        gamma = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        rm = np.zeros(3, dtype=np.float32)
        rv = np.ones(3, dtype=np.float32)
        out = F.batch_norm2d(x, gamma, beta, rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.ones(3), atol=1e-3)

    def test_running_stats_updated_in_train_only(self):
        x = rand_t((8, 2, 4, 4), seed=15, requires_grad=False)
        gamma = Tensor(np.ones(2, dtype=np.float32))
        beta = Tensor(np.zeros(2, dtype=np.float32))
        rm = np.zeros(2, dtype=np.float32)
        rv = np.ones(2, dtype=np.float32)
        F.batch_norm2d(x, gamma, beta, rm, rv, training=True, momentum=0.5)
        assert not np.allclose(rm, 0.0)
        rm2, rv2 = rm.copy(), rv.copy()
        F.batch_norm2d(x, gamma, beta, rm, rv, training=False)
        np.testing.assert_array_equal(rm, rm2)
        np.testing.assert_array_equal(rv, rv2)

    def test_eval_uses_running_stats(self):
        x = Tensor(np.full((2, 1, 2, 2), 3.0, dtype=np.float32))
        gamma = Tensor(np.ones(1, dtype=np.float32))
        beta = Tensor(np.zeros(1, dtype=np.float32))
        rm = np.array([3.0], dtype=np.float32)
        rv = np.array([1.0], dtype=np.float32)
        out = F.batch_norm2d(x, gamma, beta, rm, rv, training=False).data
        np.testing.assert_allclose(out, np.zeros_like(out), atol=1e-3)


class TestDropout:
    def test_eval_is_identity(self):
        x = rand_t((5, 5), seed=16)
        out = F.dropout(x, 0.7, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_zero_p_is_identity(self):
        x = rand_t((5, 5), seed=17)
        assert F.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_inverted_scaling_preserves_mean(self):
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        assert abs(out.data.mean() - 1.0) < 0.02
