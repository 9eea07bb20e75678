"""Autograd engine semantics: graph traversal, accumulation, grad mode."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import no_grad, set_grad_enabled, is_grad_enabled
from repro.nn.module import Parameter
from repro.nn.optim.optimizer import clip_grad_norm
from repro.nn.tensor import Tensor

from tests.helpers import rand_t


class TestBackward:
    def test_diamond_graph_accumulates_once(self):
        # y = (a*2) + (a*3): dy/da = 5 exactly (each path visited once)
        a = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        y = a * 2 + a * 3
        y.backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 0.001
        x.backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_repeated_backward_accumulates_into_grad(self):
        a = rand_t((3,), seed=1)
        (a * 2).sum().backward()
        first = a.grad.copy()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * first)

    def test_non_scalar_requires_explicit_grad(self):
        a = rand_t((3,), seed=2)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_explicit_grad_shape_checked(self):
        a = rand_t((3,), seed=3)
        with pytest.raises(RuntimeError):
            (a * 2).backward(np.ones(4))

    def test_explicit_grad_used(self):
        a = rand_t((3,), seed=4)
        (a * 1).backward(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        np.testing.assert_allclose(a.grad, [1.0, 2.0, 3.0])

    def test_intermediate_grad_not_kept_by_default(self):
        a = rand_t((3,), seed=5)
        mid = a * 2
        mid.sum().backward()
        assert mid.grad is None
        assert a.grad is not None

    def test_retain_grad(self):
        a = rand_t((3,), seed=6)
        mid = (a * 2).retain_grad()
        mid.sum().backward()
        np.testing.assert_allclose(mid.grad, np.ones(3))

    def test_grad_not_propagated_into_non_grad_leaves(self):
        a = rand_t((3,), seed=7)
        b = rand_t((3,), seed=8, requires_grad=False)
        (a * b).sum().backward()
        assert a.grad is not None and b.grad is None

    def test_zero_grad(self):
        a = rand_t((3,), seed=9)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestGradMode:
    def test_nesting_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with set_grad_enabled(True):
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restored_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_mixed_graph_cut_by_no_grad(self):
        a = rand_t((2,), seed=10)
        with no_grad():
            frozen = a * 3  # constant w.r.t. autograd
        out = (Tensor(frozen.data) * a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, frozen.data)


class TestGradStorage:
    """``.grad`` is an array its tensor owns: writable and shared with no
    other tensor's ``.grad``, since FedProx and SCAFFOLD update it in place."""

    def test_shared_gradient_is_not_aliased(self):
        # (a + b)'s backward hands its one upstream array to both parents.
        a, b, c = (Parameter(np.full(3, v, dtype=np.float32)) for v in (1.0, 2.0, 3.0))
        ((a + b) * c).sum().backward()
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        a.grad += 1
        np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(a.grad, [4.0, 4.0, 4.0])

    def test_view_of_a_stored_gradient_is_not_aliased(self):
        a = Parameter(np.ones((3, 1), dtype=np.float32))
        b = Parameter(np.ones(3, dtype=np.float32))
        (a.reshape(3) + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)

    def test_broadcast_gradient_is_writeable(self):
        p = Parameter(np.ones((2, 3), dtype=np.float32))
        p.sum().backward()
        assert p.grad.flags.writeable
        p.grad += 1
        np.testing.assert_array_equal(p.grad, np.full((2, 3), 2.0))

    def test_clip_grad_norm_after_sum(self):
        p = Parameter(np.ones((2, 3), dtype=np.float32))
        p.sum().backward()
        total = clip_grad_norm([p], 1.0)
        assert total == pytest.approx(np.sqrt(6.0))
        assert float(np.linalg.norm(p.grad)) == pytest.approx(1.0, rel=1e-6)

    def test_adaptive_avg_pool_gradient_is_writeable(self):
        x = rand_t((2, 3, 4, 4), seed=11)
        F.adaptive_avg_pool2d(x).sum().backward()
        assert x.grad.flags.writeable and x.grad.shape == (2, 3, 4, 4)
        x.grad *= 2

    def test_owned_gradient_is_stored_without_a_copy(self):
        a = Parameter(np.zeros(3, dtype=np.float32))
        handed = np.arange(3, dtype=np.float32)
        Tensor._make(np.zeros(3, dtype=np.float32), (a,), lambda g: (handed,)).sum().backward()
        assert a.grad is handed
