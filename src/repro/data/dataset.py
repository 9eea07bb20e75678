"""Dataset containers.

A ``Dataset`` here is a thin, indexable view over dense NumPy arrays. A
partitioner slices a whole corpus into zero-copy ``Subset`` views; the
federation builders (:mod:`repro.data.lazy`) instead draw each client's
rows as its own ``ArrayDataset``, so a shard's arrays are gathered once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Dataset", "ArrayDataset", "Subset"]


class Dataset:
    """Abstract indexable dataset of ``(x, y)`` pairs."""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, idx):  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def labels(self) -> np.ndarray:  # pragma: no cover - abstract
        """Integer label vector for the whole dataset (used by partitioners)."""
        raise NotImplementedError

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the full ``(X, y)`` arrays."""
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dense in-memory dataset.

    Parameters
    ----------
    x:
        Features, shape ``(N, ...)`` — images are NCHW float32.
    y:
        Integer labels, shape ``(N,)``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x)
        y = np.asarray(y)
        if len(x) != len(y):
            raise ValueError(f"x/y length mismatch: {len(x)} vs {len(y)}")
        self.x = x
        self.y = y.astype(np.int64)

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, idx):
        return self.x[idx], self.y[idx]

    @property
    def labels(self) -> np.ndarray:
        return self.y

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x, self.y

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0


class Subset(Dataset):
    """Zero-copy view of a parent dataset through an index array.

    >>> import numpy as np
    >>> ds = ArrayDataset(np.arange(10.0).reshape(5, 2), np.arange(5))
    >>> sub = Subset(ds, [4, 1])
    >>> len(sub), sub.labels.tolist(), sub[0][0].tolist()
    (2, [4, 1], [8.0, 9.0])
    """

    def __init__(self, parent: Dataset, indices: Sequence[int] | np.ndarray) -> None:
        self.parent = parent
        self.indices = np.asarray(indices, dtype=np.int64)
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= len(parent)
        ):
            raise IndexError("subset indices out of range of parent dataset")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, idx):
        return self.parent[self.indices[idx]]

    @property
    def labels(self) -> np.ndarray:
        return self.parent.labels[self.indices]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        px, py = self.parent.arrays()
        return px[self.indices], py[self.indices]

