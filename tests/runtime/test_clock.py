"""VirtualClock unit tests — the per-architecture FLOP cache key and the
synchronous-round timing.

The cache must be keyed on the architecture's interned state layout
(ordered ``(name, shape, dtype)`` entries): a ``(class name, num_bytes)``
key collides for same-size layout variants of one model family and would
hand one variant the other's FLOP count.
"""

from __future__ import annotations

import pytest

from repro.fl.devices import DEVICE_TIERS
from repro.nn.models import resnet20, resnet44
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


SMALL, MID, LARGE = DEVICE_TIERS[:3]


class TestRoundTime:
    def test_straggler_is_max(self):
        models = [resnet44(seed=0, width_mult=0.25), resnet44(seed=1, width_mult=0.25)]
        rt = VirtualClock([SMALL, LARGE], (8, 3, 8, 8)).round_timing(models, [5, 5], 1000)
        assert rt.straggler_s == max(c.total_s for c in rt.clients)
        assert rt.utilization < 1.0

    def test_uniform_fleet_high_utilization(self):
        models = [resnet20(seed=s, width_mult=0.25) for s in range(3)]
        rt = VirtualClock([MID] * 3, (8, 3, 8, 8)).round_timing(models, [4, 4, 4], 100)
        assert rt.utilization > 0.99

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            _clock(0).round_timing([], [], 0)

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ValueError):
            _clock().round_timing([MLP(8, 4, seed=0)], [1, 1], 100)

    def test_resource_matching_beats_uniform_big_model(self):
        """The paper's system argument: deploying ResNet-44 everywhere is
        gated by the iot tier; matching models to devices balances the
        round."""
        clock = VirtualClock([SMALL, MID, LARGE], (8, 3, 8, 8))
        uniform = [resnet44(seed=s, width_mult=0.25) for s in range(3)]
        matched = [
            resnet20(seed=0, width_mult=0.25),
            resnet20(seed=1, width_mult=0.25),  # mid gets something light too
            resnet44(seed=2, width_mult=0.25),
        ]
        rt_uniform = clock.round_timing(uniform, [4, 4, 4], 1000)
        rt_matched = clock.round_timing(matched, [4, 4, 4], 1000)
        assert rt_matched.straggler_s < rt_uniform.straggler_s
        assert rt_matched.utilization > rt_uniform.utilization
