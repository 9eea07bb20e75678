"""DataLoader iteration semantics."""

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.data.synthetic import make_blobs


class TestBatching:
    def test_batch_shapes(self):
        ds = make_blobs(50, seed=0)
        batches = list(DataLoader(ds, batch_size=16, shuffle=False))
        sizes = [len(y) for _, y in batches]
        assert sizes == [16, 16, 16, 2]
        assert len(DataLoader(ds, batch_size=16)) == 4

    def test_tiny_dataset_smaller_than_batch(self):
        ds = make_blobs(5, seed=0)
        dl = DataLoader(ds, batch_size=16)
        batches = list(dl)
        assert len(batches) == 1 and len(batches[0][1]) == 5
        assert len(dl) == 1

    def test_covers_all_samples(self):
        ds = make_blobs(37, seed=0)
        dl = DataLoader(ds, batch_size=8, shuffle=True, seed=0)
        ys = np.concatenate([y for _, y in dl])
        assert len(ys) == 37
        assert sorted(ys.tolist()) == sorted(ds.y.tolist())

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_blobs(5, seed=0), batch_size=0)

    def test_empty_dataset_rejected(self):
        ds = make_blobs(5, seed=0)
        from repro.data.dataset import Subset

        with pytest.raises(ValueError):
            DataLoader(Subset(ds, []), batch_size=2)


class TestShuffling:
    def test_epochs_differ(self):
        ds = make_blobs(64, seed=0)
        dl = DataLoader(ds, batch_size=64, shuffle=True, seed=0)
        (x1, _), = list(dl)
        (x2, _), = list(dl)
        assert not np.allclose(x1, x2)

    def test_no_shuffle_preserves_order(self):
        ds = make_blobs(20, seed=0)
        dl = DataLoader(ds, batch_size=20, shuffle=False)
        (x, y), = list(dl)
        np.testing.assert_array_equal(y, ds.y)

    def test_seeded_reproducible(self):
        ds = make_blobs(32, seed=0)
        a = [y for _, y in DataLoader(ds, batch_size=8, seed=5)]
        b = [y for _, y in DataLoader(ds, batch_size=8, seed=5)]
        for ya, yb in zip(a, b):
            np.testing.assert_array_equal(ya, yb)
