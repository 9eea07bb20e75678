"""Shared utilities: seeded RNG management, registries, logging."""

from repro.utils.rng import RngMixin, new_rng, spawn_rngs, temp_seed
from repro.utils.registry import Registry
from repro.utils.logging import get_logger

__all__ = [
    "RngMixin",
    "new_rng",
    "spawn_rngs",
    "temp_seed",
    "Registry",
    "get_logger",
]
