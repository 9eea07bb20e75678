"""Optimizer math verified against hand-computed updates."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, clip_grad_norm


def param(value, grad=None):
    p = Parameter(np.array(value, dtype=np.float32))
    if grad is not None:
        p.grad = np.array(grad, dtype=np.float32)
    return p


class TestSGD:
    def test_vanilla_step(self):
        p = param([1.0], grad=[0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95])

    def test_momentum_two_steps(self):
        p = param([0.0], grad=[1.0])
        opt = SGD([p], lr=0.1, momentum=0.9)
        opt.step()  # v=1, p=-0.1
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()  # v=1.9, p=-0.29
        np.testing.assert_allclose(p.data, [-0.29], atol=1e-6)

    def test_weight_decay(self):
        p = param([2.0], grad=[0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_skips_none_grads(self):
        p = param([1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([param([0.0])], lr=0.0)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # With bias correction, |Δ| of step 1 ≈ lr regardless of grad scale.
        p = param([0.0], grad=[1e-3])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(abs(p.data[0]), 0.01, rtol=1e-3)

    def test_descends_quadratic(self):
        p = param([5.0])
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            p.grad = 2 * p.data  # d/dx x² = 2x
            opt.step()
        assert abs(p.data[0]) < 0.3

    def test_weight_decay_applied(self):
        p1 = param([1.0], grad=[0.0])
        p2 = param([1.0], grad=[0.0])
        Adam([p1], lr=0.01, weight_decay=0.0).step()
        Adam([p2], lr=0.01, weight_decay=1.0).step()
        assert p2.data[0] < p1.data[0]


class TestClip:
    def test_no_clip_below_threshold(self):
        p = param([0.0], grad=[0.3])
        norm = clip_grad_norm([p], 1.0)
        np.testing.assert_allclose(norm, 0.3, rtol=1e-6)
        np.testing.assert_allclose(p.grad, [0.3])

    def test_clips_to_max_norm(self):
        p1 = param([0.0], grad=[3.0])
        p2 = param([0.0], grad=[4.0])
        norm = clip_grad_norm([p1, p2], 1.0)
        np.testing.assert_allclose(norm, 5.0, rtol=1e-6)
        total = np.sqrt(p1.grad[0] ** 2 + p2.grad[0] ** 2)
        np.testing.assert_allclose(total, 1.0, rtol=1e-5)

    def test_all_none_grads(self):
        assert clip_grad_norm([param([1.0])], 1.0) == 0.0
