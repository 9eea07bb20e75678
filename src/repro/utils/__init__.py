"""Shared utilities: seeded RNG streams (``new_rng``), registries, logging."""

from repro.utils.rng import new_rng
from repro.utils.registry import Registry
from repro.utils.logging import get_logger

__all__ = [
    "new_rng",
    "Registry",
    "get_logger",
]
