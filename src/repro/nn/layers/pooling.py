"""Pooling layers."""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["MaxPool2d", "AvgPool2d", "AdaptiveAvgPool2d"]


def _check_pool_geometry(name: str, kernel_size: int, stride: int) -> None:
    """Fail at construction (not first forward) on unsupported geometries.

    The functional fast paths pre-reshape the input into non-overlapping
    ``(kernel, kernel)`` windows, which requires ``stride == kernel_size``.
    """
    if kernel_size < 1:
        raise ValueError(f"{name} kernel_size must be >= 1; got {kernel_size}")
    if stride != kernel_size:
        raise NotImplementedError(
            f"{name} supports kernel_size == stride only; got "
            f"kernel_size={kernel_size}, stride={stride}"
        )


class MaxPool2d(Module):
    """Max pooling with ``kernel_size == stride`` (the zoo's only use)."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        _check_pool_geometry("MaxPool2d", self.kernel_size, self.stride)

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    """Average pooling with ``kernel_size == stride``."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        _check_pool_geometry("AvgPool2d", self.kernel_size, self.stride)

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AdaptiveAvgPool2d(Module):
    """Global average pooling to 1×1."""

    def __init__(self, output_size: int = 1) -> None:
        super().__init__()
        if output_size != 1:
            raise NotImplementedError(
                f"AdaptiveAvgPool2d supports output_size == 1 only; got {output_size}"
            )
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)

    def __repr__(self) -> str:
        return f"AdaptiveAvgPool2d(output_size={self.output_size})"
