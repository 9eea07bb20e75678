"""Unit tests for Tensor arithmetic, reductions and shape ops."""

import numpy as np
import pytest

from repro.nn import no_grad
from repro.nn.tensor import Tensor, unbroadcast

from tests.helpers import check_grads, rand_t


class TestConstruction:
    def test_float64_downcast(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float32

    def test_int_preserved(self):
        t = Tensor(np.arange(3))
        assert t.dtype in (np.int64, np.int32)

    def test_item_and_len(self):
        assert Tensor(np.array([[3.0]])).item() == 3.0
        with pytest.raises(ValueError):
            Tensor(np.array([1.0, 2.0])).item()
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(np.zeros(1), requires_grad=True))


class TestArithmetic:
    def test_add_values(self):
        a, b = Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))
        np.testing.assert_allclose((a + b).data, [4.0, 6.0])

    def test_scalar_coercion_both_sides(self):
        a = Tensor(np.array([2.0]))
        np.testing.assert_allclose((a + 1).data, [3.0])
        np.testing.assert_allclose((1 + a).data, [3.0])
        np.testing.assert_allclose((a - 1).data, [1.0])
        np.testing.assert_allclose((1 - a).data, [-1.0])
        np.testing.assert_allclose((a * 3).data, [6.0])
        np.testing.assert_allclose((3 * a).data, [6.0])
        np.testing.assert_allclose((a / 2).data, [1.0])
        np.testing.assert_allclose((2 / a).data, [1.0])

    def test_neg_pow(self):
        a = Tensor(np.array([2.0, -3.0]))
        np.testing.assert_allclose((-a).data, [-2.0, 3.0])
        np.testing.assert_allclose((a ** 2).data, [4.0, 9.0])

    def test_pow_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array([2.0])) ** Tensor(np.array([2.0]))

    def test_matmul_2d(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose((a @ b).data, a.data)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_elementwise_grads(self, op):
        a = rand_t((3, 4), seed=1)
        b = rand_t((3, 4), seed=2, scale=0.5)
        b.data += 2.0  # keep away from zero for div
        f = {
            "add": lambda: (a + b).sum(),
            "sub": lambda: (a - b).sum(),
            "mul": lambda: (a * b).sum(),
            "div": lambda: (a / b).sum(),
        }[op]
        check_grads(f, [a, b])

    def test_broadcast_grads(self):
        a = rand_t((3, 4), seed=3)
        b = rand_t((4,), seed=4)
        check_grads(lambda: (a * b).sum(), [a, b])

    def test_broadcast_scalar_like(self):
        a = rand_t((2, 3), seed=5)
        b = rand_t((1, 1), seed=6)
        check_grads(lambda: (a + b).sum(), [a, b])

    def test_matmul_grads(self):
        a = rand_t((3, 4), seed=7)
        b = rand_t((4, 2), seed=8)
        check_grads(lambda: (a @ b).sum(), [a, b])

    def test_batched_matmul_grads(self):
        a = rand_t((2, 3, 4), seed=9)
        b = rand_t((2, 4, 2), seed=10)
        check_grads(lambda: (a @ b).sum(), [a, b])


class TestElementwiseFns:
    @pytest.mark.parametrize("name", ["exp", "relu", "abs"])
    def test_grads(self, name):
        a = rand_t((4, 3), seed=11)
        check_grads(lambda: getattr(a, name)().sum(), [a])

    def test_log_sqrt_grads_positive_domain(self):
        a = rand_t((4, 3), seed=12)
        a.data = np.abs(a.data) + 0.5
        check_grads(lambda: a.log().sum(), [a])
        check_grads(lambda: a.sqrt().sum(), [a])

    def test_clip_values_and_grad_mask(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]))
        a.requires_grad = True
        out = a.clip(-1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_relu_values(self):
        a = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(a.relu().data, [0.0, 0.0, 2.0])


class TestReductions:
    def test_sum_axes(self):
        a = rand_t((2, 3, 4), seed=13)
        assert a.sum().shape == ()
        assert a.sum(axis=1).shape == (2, 4)
        assert a.sum(axis=(0, 2)).shape == (3,)
        assert a.sum(axis=1, keepdims=True).shape == (2, 1, 4)

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum_grads(self, axis, keepdims):
        a = rand_t((3, 4), seed=14)
        check_grads(lambda: (a.sum(axis=axis, keepdims=keepdims) ** 2).sum(), [a])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_mean_grads(self, axis):
        a = rand_t((3, 4), seed=15)
        check_grads(lambda: (a.mean(axis=axis) ** 2).sum(), [a])

    def test_max_values(self):
        a = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]))
        np.testing.assert_allclose(a.max().data, 7.0)
        np.testing.assert_allclose(a.max(axis=0).data, [7.0, 5.0])
        np.testing.assert_allclose(a.min(axis=1).data, [1.0, 2.0])

    def test_max_grad_routes_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]))
        a.requires_grad = True
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_max_grad_splits_ties(self):
        a = Tensor(np.array([[3.0, 3.0]]))
        a.requires_grad = True
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])

    def test_argmax(self):
        a = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]))
        np.testing.assert_array_equal(a.argmax(axis=1), [1, 0])


class TestShapeOps:
    def test_reshape_grads(self):
        a = rand_t((2, 6), seed=16)
        check_grads(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_flatten_from(self):
        a = rand_t((2, 3, 4), seed=17)
        assert a.flatten_from(1).shape == (2, 12)

    def test_transpose_default_and_axes(self):
        a = rand_t((2, 3, 4), seed=18)
        assert a.T.shape == (4, 3, 2)
        assert a.transpose(1, 0, 2).shape == (3, 2, 4)
        check_grads(lambda: (a.transpose(2, 0, 1) ** 2).sum(), [a])

    def test_getitem_grads(self):
        a = rand_t((4, 5), seed=19)
        check_grads(lambda: (a[1:3, ::2] ** 2).sum(), [a])


class TestUnbroadcast:
    def test_noop_when_same_shape(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_leading_axis_sum(self):
        g = np.ones((5, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), np.full((2, 3), 5.0))

    def test_kept_axis_sum(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (1, 3)), [[2.0, 2.0, 2.0]])

    def test_scalar_target(self):
        g = np.ones((4, 4))
        np.testing.assert_allclose(unbroadcast(g, ()), 16.0)


class TestGradMode:
    def test_no_grad_builds_no_graph(self):
        a = rand_t((2, 2), seed=23)
        with no_grad():
            out = a * 2
        assert out._backward_fn is None and out._is_leaf

    def test_detach(self):
        a = rand_t((2, 2), seed=24)
        d = a.detach()
        assert not d.requires_grad
        assert d.data is a.data  # shared storage
