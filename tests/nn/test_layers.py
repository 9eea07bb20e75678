"""Layer modules: shapes, determinism, containers."""

import numpy as np
import pytest

from repro.nn import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    ModuleList,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor

from tests.helpers import rand_t


def x4(seed=0):
    return rand_t((2, 3, 8, 8), seed=seed, requires_grad=False)


class TestLinear:
    def test_shape(self):
        m = Linear(5, 7, rng=np.random.default_rng(0))
        assert m(rand_t((3, 5))).shape == (3, 7)

    def test_no_bias(self):
        m = Linear(5, 7, bias=False, rng=np.random.default_rng(0))
        assert m.bias is None
        assert len(m.parameters()) == 1

    def test_deterministic_init(self):
        a = Linear(5, 7, rng=np.random.default_rng(42))
        b = Linear(5, 7, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_repr(self):
        assert "in_features=5" in repr(Linear(5, 7))


class TestConv2d:
    @pytest.mark.parametrize("stride,pad,expect", [(1, 1, 8), (2, 1, 4), (1, 0, 6)])
    def test_output_size(self, stride, pad, expect):
        m = Conv2d(3, 4, 3, stride=stride, padding=pad, rng=np.random.default_rng(0))
        assert m(x4()).shape == (2, 4, expect, expect)

    def test_bias_optional(self):
        assert Conv2d(3, 4, 3).bias is None
        assert Conv2d(3, 4, 3, bias=True).bias is not None


class TestPoolingLayers:
    def test_max(self):
        assert MaxPool2d(2)(x4()).shape == (2, 3, 4, 4)

    def test_avg(self):
        assert AvgPool2d(2)(x4()).shape == (2, 3, 4, 4)

    def test_adaptive(self):
        assert AdaptiveAvgPool2d()(x4()).shape == (2, 3, 1, 1)


class TestActivations:
    def test_shapes_preserved(self):
        for m in (ReLU(), Identity()):
            assert m(x4()).shape == (2, 3, 8, 8)


class TestDropoutLayer:
    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_eval_identity(self):
        m = Dropout(0.9, seed=0)
        m.eval()
        x = rand_t((4, 4))
        assert m(x) is x

    def test_seeded_reproducible(self):
        m1, m2 = Dropout(0.5, seed=3), Dropout(0.5, seed=3)
        x = rand_t((16, 16), requires_grad=False)
        np.testing.assert_array_equal(m1(x).data, m2(x).data)


class TestContainers:
    def test_sequential_applies_in_order(self):
        m = Sequential(Flatten(), Linear(3 * 8 * 8, 4, rng=np.random.default_rng(0)), ReLU())
        assert m(x4()).shape == (2, 4)

    def test_sequential_iteration_len_getitem(self):
        m = Sequential(ReLU(), Identity())
        assert len(m) == 2
        assert isinstance(m[1], Identity)
        assert [type(c).__name__ for c in m] == ["ReLU", "Identity"]

    def test_sequential_append(self):
        m = Sequential(ReLU())
        m.append(Identity())
        assert len(m) == 2

    def test_module_list_registers_params(self):
        ml = ModuleList([Linear(2, 2, rng=np.random.default_rng(0)) for _ in range(3)])
        assert len(ml) == 3
        assert len(list(ml[0].parameters())) == 2
        parent = Sequential()  # host so traversal sees the list
        parent.ml = ml
        assert len(parent.parameters()) == 6

    def test_module_list_not_callable(self):
        with pytest.raises(RuntimeError):
            ModuleList([ReLU()])(x4())


class TestShapeLayers:
    def test_flatten(self):
        assert Flatten()(x4()).shape == (2, 192)
        assert Flatten(start_dim=2)(x4()).shape == (2, 3, 64)

    def test_identity(self):
        x = x4()
        assert Identity()(x) is x
