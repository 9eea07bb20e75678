"""Stochastic gradient descent with momentum and weight decay."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter
from repro.nn.optim.optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """SGD matching torch semantics.

    ``v ← μ v + (g + λ θ)``; ``θ ← θ − lr·v``.
    The local solver for every FL algorithm in the paper.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)

    def step(self) -> None:
        # Fused in-place update: every temporary lands in a reusable scratch
        # buffer (no per-step allocation), and each fused expression keeps
        # the reference formulation's operand order, so results stay
        # bit-identical to the unfused version.
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            buf = self.scratch_for(0, i)
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=buf)
                buf += g
                g = buf  # g + λθ
            if self.momentum:
                v = self._velocity[i]
                if v is None:
                    v = g.astype(p.data.dtype, copy=True)
                else:
                    v *= self.momentum
                    v += g
                self._velocity[i] = v
                g = v
            np.multiply(g, self.lr, out=buf)  # self-aliasing multiply is safe
            p.data -= buf
        self.steps += 1
