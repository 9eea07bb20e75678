"""VirtualClock unit tests — the per-architecture FLOP cache key.

The cache must be keyed on the architecture's interned state layout
(ordered ``(name, shape, dtype)`` entries): a ``(class name, num_bytes)``
key collides for same-size layout variants of one model family and would
hand one variant the other's FLOP count.
"""

from __future__ import annotations

import pytest

from repro.fl.devices import DEVICE_TIERS
from repro.nn.models.mlp import MLP
from repro.nn.serialization import state_layout
from repro.runtime.clock import VirtualClock


def _clock(num_clients: int = 2) -> VirtualClock:
    # batch of 4 samples, 2x2x2 images → flattens to 8 features
    return VirtualClock(
        profiles=[DEVICE_TIERS[0]] * num_clients,
        batch_input_shape=(4, 2, 2, 2),
    )


def test_same_size_layout_variants_get_distinct_cache_entries():
    # Both hold exactly 81 parameters (8*5+5 + 5*6+6 == 8*4+4 + 4*9+9),
    # so a byte-count key would collide — but their per-step FLOPs differ.
    a = MLP(8, num_classes=6, hidden=(5,), seed=0)
    b = MLP(8, num_classes=9, hidden=(4,), seed=0)
    assert sum(p.data.size for p in a.parameters()) == sum(
        p.data.size for p in b.parameters()
    )

    clock = _clock()
    flops_a = clock._flops_step(a)
    flops_b = clock._flops_step(b)
    assert len(clock._flops_cache) == 2
    assert flops_a != flops_b


def test_cache_hits_for_identical_architecture():
    clock = _clock()
    a = MLP(8, num_classes=6, hidden=(5,), seed=0)
    b = MLP(8, num_classes=6, hidden=(5,), seed=99)  # different weights
    assert clock._flops_step(a) == clock._flops_step(b)
    assert len(clock._flops_cache) == 1  # one profile run per architecture


def test_layout_orders_and_types():
    state = MLP(8, num_classes=6, hidden=(5,), seed=0).state_dict()
    layout = state_layout(state)
    assert all(len(entry) == 3 for entry in layout.entries)
    assert list(layout.names) == list(state)  # insertion order kept
    shapes = {shape for _, shape, _ in layout.entries}
    assert (5, 8) in shapes or (8, 5) in shapes
    # interned: an equal layout from other weights is the same object
    assert state_layout(MLP(8, num_classes=6, hidden=(5,), seed=1).state_dict()) is layout


def test_client_time_scales_with_slowdown():
    clock = _clock()
    model = MLP(8, num_classes=6, hidden=(5,), seed=0)
    base = clock.client_time(0, model, steps=3, payload_bytes=1024)
    slow = clock.client_time(0, model, steps=3, payload_bytes=1024, slowdown=4.0)
    assert slow > base
    timing = clock.client_timing(0, model, steps=3, payload_bytes=1024)
    assert slow - base == pytest.approx((4.0 - 1.0) * timing.compute_s)
