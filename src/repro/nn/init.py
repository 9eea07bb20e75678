"""Weight initializers (Kaiming), deterministic via explicit RNGs."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import DEFAULT_DTYPE

__all__ = ["kaiming_normal", "kaiming_uniform", "zeros", "ones", "fan_in_out"]


def fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense (out,in) or conv (oc,ic,kh,kw) shapes."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        oc, ic, kh, kw = shape
        rf = kh * kw
        return ic * rf, oc * rf
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He-normal init (for ReLU nets); std = gain / sqrt(fan_in)."""
    fan_in, _ = fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    return (rng.standard_normal(shape) * std).astype(DEFAULT_DTYPE)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He-uniform init; bound = gain * sqrt(3 / fan_in)."""
    fan_in, _ = fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=DEFAULT_DTYPE)
