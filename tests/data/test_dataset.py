"""Dataset containers."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset, Subset
from repro.data.synthetic import make_blobs


class TestArrayDataset:
    def test_basic(self):
        ds = ArrayDataset(np.zeros((5, 3)), np.arange(5) % 2)
        assert len(ds) == 5
        x, y = ds[2]
        assert x.shape == (3,) and y == 0
        assert ds.num_classes == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 3)), np.zeros(4))

    def test_labels_int64(self):
        ds = ArrayDataset(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0]))
        assert ds.labels.dtype == np.int64

    def test_arrays(self):
        x = np.arange(6).reshape(3, 2).astype(np.float32)
        ds = ArrayDataset(x, np.zeros(3))
        ax, ay = ds.arrays()
        assert ax is x  # no copy


class TestSubset:
    def test_view_semantics(self):
        ds = make_blobs(50, seed=0)
        sub = Subset(ds, [0, 5, 10])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, ds.labels[[0, 5, 10]])
        x, y = sub[1]
        np.testing.assert_array_equal(x, ds.x[5])

    def test_out_of_range(self):
        ds = make_blobs(10, seed=0)
        with pytest.raises(IndexError):
            Subset(ds, [11])
        with pytest.raises(IndexError):
            Subset(ds, [-1])

    def test_nested_subsets(self):
        ds = make_blobs(30, seed=0)
        inner = Subset(Subset(ds, np.arange(10, 30)), [0, 1, 2])
        np.testing.assert_array_equal(inner.labels, ds.labels[10:13])

    def test_arrays_gather(self):
        ds = make_blobs(20, seed=0)
        sub = Subset(ds, [3, 7])
        x, y = sub.arrays()
        np.testing.assert_array_equal(x, ds.x[[3, 7]])

