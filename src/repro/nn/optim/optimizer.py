"""Optimizer base class and gradient utilities."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "clip_grad_norm"]


class Optimizer:
    """Base optimizer holding a parameter list and a learning rate.

    Subclasses implement :meth:`step`, updating ``p.data`` in place (the HPC
    guide's in-place rule: parameter updates never reallocate). Update
    arithmetic runs through per-parameter scratch buffers
    (:meth:`scratch_for`) and ``np.multiply/np.add(..., out=...)`` so a step
    over a many-parameter model allocates nothing after the first call.
    """

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        self.lr = float(lr)
        self.steps = 0
        # slot -> per-parameter scratch buffers, allocated lazily and reused
        # every step (kills the temporary-array churn of expression updates).
        self._scratch: dict[int, list[np.ndarray | None]] = {}

    def scratch_for(self, slot: int, index: int) -> np.ndarray:
        """A reusable uninitialized buffer shaped like ``params[index]``.

        ``slot`` distinguishes independent buffers for the same parameter
        (an optimizer needing two live temporaries uses slots 0 and 1).
        Contents are undefined between steps — callers must fully overwrite.
        """
        bufs = self._scratch.setdefault(slot, [None] * len(self.params))
        buf = bufs[index]
        if buf is None:
            buf = bufs[index] = np.empty_like(self.params[index].data)
        return buf

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Clip the global L2 gradient norm in place; returns the pre-clip norm."""
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total = math.sqrt(sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
