"""Activation layers."""

from __future__ import annotations

from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["ReLU"]


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"
