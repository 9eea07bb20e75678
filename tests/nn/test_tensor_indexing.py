"""Indexing edge cases and misc tensor semantics."""

import numpy as np
import pytest


from tests.helpers import check_grads, rand_t


class TestGetitemVariants:
    def test_integer_row(self):
        a = rand_t((4, 3), seed=1)
        check_grads(lambda: (a[2] ** 2).sum(), [a])

    def test_boolean_mask(self):
        a = rand_t((6,), seed=2)
        mask = np.array([True, False, True, False, True, False])
        out = a[mask]
        assert out.shape == (3,)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, mask.astype(np.float32))

    def test_fancy_index_repeats_accumulate(self):
        """Indexing the same element twice must accumulate its gradient —
        the np.add.at path, where naive assignment would silently drop."""
        a = rand_t((4,), seed=3)
        idx = np.array([1, 1, 2])
        a[idx].sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 2.0, 1.0, 0.0])

    def test_negative_index(self):
        a = rand_t((5,), seed=4)
        a[-1].backward()
        np.testing.assert_array_equal(a.grad, [0, 0, 0, 0, 1])

    def test_slice_step(self):
        a = rand_t((6,), seed=5)
        a[::2].sum().backward()
        np.testing.assert_array_equal(a.grad, [1, 0, 1, 0, 1, 0])


class TestDtypeInterplay:
    def test_float32_preserved_through_ops(self):
        a = rand_t((3, 3), seed=11)
        for op in (lambda: a + 1, lambda: a * 0.5, lambda: a.exp(), lambda: a.sum()):
            assert op().dtype == np.float32

    def test_python_scalar_does_not_upcast(self):
        a = rand_t((3,), seed=12)
        assert (a * 2.5).dtype == np.float32
        assert (2.5 * a).dtype == np.float32
