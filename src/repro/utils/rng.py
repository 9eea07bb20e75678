"""Deterministic random-number management.

Every stochastic component in this codebase (data synthesis, partitioning,
client sampling, weight init, dropout, SGD shuffling) draws from an explicit
``numpy.random.Generator``. Nothing touches the global NumPy RNG, so two runs
with the same seed are bit-identical regardless of call order elsewhere — a
requirement for the paired algorithm comparisons in Tables 1–3.
"""

from __future__ import annotations

import numpy as np

__all__ = ["new_rng", "derive_seed"]

# Fixed stream keys so that independently-seeded subsystems never collide.
_STREAM_KEYS = {
    "data": 0x5EED_DA7A,
    "partition": 0x5EED_9A57,
    "init": 0x5EED_1117,
    "sampling": 0x5EED_CA11,
    "train": 0x5EED_7EA1,
    "generic": 0x5EED_0000,
}


def derive_seed(seed: int, stream: str = "generic", index: int = 0) -> int:
    """Derive a child seed for ``stream``/``index`` from a root ``seed``.

    Uses ``numpy.random.SeedSequence`` spawning semantics so children are
    statistically independent.
    """
    key = _STREAM_KEYS.get(stream, _STREAM_KEYS["generic"])
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key, index))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def new_rng(seed: int | None = None, stream: str = "generic", index: int = 0) -> np.random.Generator:
    """Create a fresh :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Root seed. ``None`` yields a non-deterministic generator.
    stream:
        Logical stream name ("data", "partition", "init", "sampling",
        "train"); different streams from the same root seed are independent.
    index:
        Sub-stream index (e.g. per-client).
    """
    if seed is None:
        # The one sanctioned entropy source: callers who *explicitly* pass
        # seed=None (interactive exploration, unseeded layer construction)
        # funnel through here, so the lint gate covers everything else.
        return np.random.default_rng()  # reprolint: allow[RPL102] sole sanctioned unseeded fallback
    return np.random.default_rng(derive_seed(seed, stream, index))
