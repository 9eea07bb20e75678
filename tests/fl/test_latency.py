"""Edge-system latency simulation."""

import pytest

from repro.fl.devices import DEVICE_TIERS, DeviceProfile
from repro.fl.latency import estimate_client_time
from repro.nn.models import MLP, resnet20


SMALL = DEVICE_TIERS[0]
MID = DEVICE_TIERS[1]
LARGE = DEVICE_TIERS[2]


class TestClientTime:
    def test_components_positive(self):
        m = MLP(8, 4, hidden=(16,), seed=0)
        t = estimate_client_time(0, m, MID, steps=10, batch_input_shape=(16, 8), payload_bytes=1_000_000)
        assert t.compute_s > 0 and t.comm_s > 0
        assert t.total_s == t.compute_s + t.comm_s

    def test_faster_device_less_compute_time(self):
        m = resnet20(seed=0, width_mult=0.25)
        slow = estimate_client_time(0, m, SMALL, 5, (8, 3, 8, 8), 0)
        fast = estimate_client_time(0, m, LARGE, 5, (8, 3, 8, 8), 0)
        assert fast.compute_s < slow.compute_s / 4

    def test_comm_time_scales_with_payload(self):
        m = MLP(8, 4, seed=0)
        t1 = estimate_client_time(0, m, MID, 1, (1, 8), 1_000_000)
        t2 = estimate_client_time(0, m, MID, 1, (1, 8), 4_000_000)
        assert abs(t2.comm_s - 4 * t1.comm_s) < 1e-9

    def test_zero_steps_pure_comm(self):
        m = MLP(8, 4, seed=0)
        t = estimate_client_time(0, m, MID, 0, (1, 8), 1000)
        assert t.compute_s == 0 and t.comm_s > 0

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            estimate_client_time(0, MLP(8, 4, seed=0), MID, -1, (1, 8), 0)

    def test_unknown_tier_uses_default_bandwidth(self):
        prof = DeviceProfile("custom", 4.0, 4.0)
        t = estimate_client_time(0, MLP(8, 4, seed=0), prof, 1, (1, 8), 10_000_000)
        assert t.comm_s == 10_000_000 * 8 / 10e6
