"""Mini-batch loader.

Gathers whole batches with fancy indexing on the dense arrays (one NumPy
gather per batch, no per-sample Python) and reshuffles per epoch from its
own generator. A trailing short batch is kept.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate ``(x_batch, y_batch)`` NumPy pairs over a dataset.

    Parameters
    ----------
    dataset:
        Source dataset (its ``arrays()`` are materialized once).
    batch_size:
        Mini-batch size.
    shuffle:
        Reshuffle order each epoch.
    seed:
        Shuffle RNG seed.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        shuffle: bool = True,
        seed: int | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive; got {batch_size}")
        self.x, self.y = dataset.arrays()
        if len(self.x) == 0:
            raise ValueError("cannot build a DataLoader over an empty dataset")
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return (len(self.x) + self.batch_size - 1) // self.batch_size

    def epoch_orders(self, epochs: int = 1) -> "list[np.ndarray]":
        """The sample orders of the next ``epochs`` epochs, one shuffle
        draw each. Batch ``j`` of an epoch is
        ``order[j*batch_size:(j+1)*batch_size]``; :meth:`__iter__` and the
        lockstep cohort scaffold both batch by it."""
        n = len(self.x)
        return [self._rng.permutation(n) if self.shuffle else np.arange(n) for _ in range(epochs)]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        (order,) = self.epoch_orders()
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.x[idx], self.y[idx]
