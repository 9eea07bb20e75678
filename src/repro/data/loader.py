"""Mini-batch loader.

Gathers whole batches with fancy indexing on the dense arrays (one NumPy
gather per batch, no per-sample Python), applies optional batch transforms,
and reshuffles per epoch from its own generator.
"""

from __future__ import annotations

from typing import Callable, Iterator

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
    drop_last:
        Drop a trailing short batch (keeps batch-norm statistics stable on
        very small shards).
    transform:
        Optional batch transform ``f(x, rng) -> x``.
    seed:
        Shuffle/transform RNG seed.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        shuffle: bool = True,
        drop_last: bool = False,
        transform: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None,
        seed: int | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive; got {batch_size}")
        self.x, self.y = dataset.arrays()
        if len(self.x) == 0:
            raise ValueError("cannot build a DataLoader over an empty dataset")
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.transform = transform
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.x)
        if self.drop_last and n >= self.batch_size:  # a shorter shard is one batch
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def epoch_orders(self, epochs: int = 1) -> "list[np.ndarray]":
        """The sample orders of the next ``epochs`` epochs, one shuffle
        draw each, cut to the samples an epoch visits (``drop_last``).
        Batch ``j`` of an epoch is ``order[j*batch_size:(j+1)*batch_size]``;
        :meth:`__iter__` and the lockstep cohort scaffold both batch by it."""
        n = len(self.x)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        if stop == 0:  # shard smaller than one batch: yield it whole
            stop = n
        return [
            (self._rng.permutation(n) if self.shuffle else np.arange(n))[:stop]
            for _ in range(epochs)
        ]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        (order,) = self.epoch_orders()
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            xb = self.x[idx]
            if self.transform is not None:
                xb = self.transform(xb, self._rng)
            yield xb, self.y[idx]
