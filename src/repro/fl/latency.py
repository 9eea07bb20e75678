"""Edge-system latency model: the "resource-aware" half of the paper.

The paper motivates multi-model deployment with compute heterogeneity:
"some resource-poor clients will limit the FL system's computational
overhead" (the straggler effect). The sandbox has no device fleet, so this
module *simulates* one analytically from measured quantities:

- per-step compute FLOPs come from the real profiler
  (:mod:`repro.nn.profiler`) run over the client's actual model;
- payload bytes come from the real serialized state;
- device capability (GFLOP/s, Mbit/s) comes from the client's
  :class:`repro.fl.devices.DeviceProfile` tier.

Round latency (:meth:`repro.runtime.clock.VirtualClock.round_timing`) is
the straggler maximum over sampled clients of

    T_k = steps·flops_step / (gflops·10⁹) + payload_bytes·8 / (mbps·10⁶)

which lets the Table-3 bench quantify *system* efficiency: a uniform large
model is gated by the slowest tier, while resource-matched multi-model
deployment equalizes per-client time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.devices import DeviceProfile
from repro.nn.module import Module
from repro.nn.profiler import flops_training_step

__all__ = ["TIER_BANDWIDTH_MBPS", "ClientTiming", "RoundTiming", "estimate_client_time"]

# Uplink bandwidth by device tier name (edge links are asymmetric and slow).
TIER_BANDWIDTH_MBPS: dict[str, float] = {
    "iot-small": 2.0,
    "mobile-mid": 10.0,
    "edge-large": 50.0,
}
_DEFAULT_MBPS = 10.0


@dataclass(frozen=True)
class ClientTiming:
    """Simulated per-round cost of one client."""

    client_id: int
    device: str
    compute_s: float
    comm_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s


@dataclass(frozen=True)
class RoundTiming:
    """One synchronous round: the server waits for the slowest client."""

    clients: tuple[ClientTiming, ...]

    @property
    def straggler_s(self) -> float:
        return max(c.total_s for c in self.clients)

    @property
    def mean_s(self) -> float:
        return float(np.mean([c.total_s for c in self.clients]))

    @property
    def utilization(self) -> float:
        """Mean busy fraction across clients while waiting on the straggler
        (1.0 = perfectly balanced, → 0 under severe stragglers)."""
        s = self.straggler_s
        return self.mean_s / s if s > 0 else 1.0


def estimate_client_time(
    client_id: int,
    model: Module,
    profile: DeviceProfile,
    steps: int,
    batch_input_shape: tuple[int, ...],
    payload_bytes: int,
    efficiency: float = 0.3,
    flops_step: "int | None" = None,
) -> ClientTiming:
    """Simulate one client's round time.

    Parameters
    ----------
    model, batch_input_shape:
        The client's deployed model and its per-step batch shape; FLOPs are
        measured by an instrumented forward pass (×3 for backward).
    profile:
        The device tier (GFLOP/s budget; bandwidth via its tier name).
    steps:
        Local optimizer steps this round.
    payload_bytes:
        Up+down wire bytes this round.
    efficiency:
        Achievable fraction of peak FLOP/s (0.3 is a generous mobile
        figure for dense conv workloads).
    flops_step:
        Pre-measured per-step FLOPs, letting callers that time the same
        architecture repeatedly (``repro.runtime.clock.VirtualClock``) skip
        the instrumented profiling pass.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if flops_step is None:
        flops_step = flops_training_step(model, batch_input_shape)
    flops = flops_step * steps
    compute_s = flops / (profile.compute_gflops * 1e9 * efficiency)
    mbps = TIER_BANDWIDTH_MBPS.get(profile.name, _DEFAULT_MBPS)
    comm_s = payload_bytes * 8 / (mbps * 1e6)
    return ClientTiming(client_id, profile.name, compute_s, comm_s)
