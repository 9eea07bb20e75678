"""Virtual clock: simulated wall-time for fault/straggler policies.

The deadline policy needs to know *when* each client would have reported
back on real edge hardware. That time is already modelled analytically in
:mod:`repro.fl.latency` (profiler-measured FLOPs over
:class:`repro.fl.devices.DeviceProfile` tier budgets, payload bytes over
tier bandwidth); the clock reuses that model verbatim rather than keeping a
parallel bookkeeping path, adding only (a) a per-architecture FLOP cache so
the profiler's instrumented forward pass runs once per model family instead
of once per client per round, and (b) fault adjustments — straggler
slowdown multipliers and retransmission backoff.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.devices import DeviceProfile
    from repro.nn.module import Module

__all__ = ["VirtualClock"]


class VirtualClock:
    """Simulates per-client round completion times.

    Parameters
    ----------
    profiles:
        One :class:`DeviceProfile` per client (the whole federation).
    batch_input_shape:
        Per-step input batch shape, e.g. ``(batch, C, H, W)``; FLOPs per
        step are profiled from it once per architecture.
    efficiency:
        Achievable fraction of the device's peak FLOP/s (matches
        :func:`repro.fl.latency.estimate_client_time`).
    """

    def __init__(
        self,
        profiles: "Sequence[DeviceProfile]",
        batch_input_shape: tuple[int, ...],
        efficiency: float = 0.3,
    ) -> None:
        self.profiles = list(profiles)
        self.batch_input_shape = tuple(batch_input_shape)
        self.efficiency = efficiency
        self._flops_cache: dict[tuple, int] = {}

    def _flops_step(self, model: "Module") -> int:
        # Lazy import: repro.fl's package init imports the algorithm layer,
        # which imports repro.runtime — resolving latency at call time keeps
        # both import orders (`import repro.runtime` / `import repro.fl`) safe.
        from repro.nn.profiler import flops_training_step
        from repro.nn.serialization import state_layout

        # Keyed on the interned state layout: (class name, num_bytes)
        # collides for same-size layout variants of one model family.
        key = (type(model).__name__, state_layout(model.state_dict(copy=False)))
        if key not in self._flops_cache:
            self._flops_cache[key] = flops_training_step(model, self.batch_input_shape)
        return self._flops_cache[key]

    def client_timing(
        self, client_id: int, model: "Module", steps: int, payload_bytes: int
    ):
        """The undisturbed latency-model breakdown for one client
        (:class:`repro.fl.latency.ClientTiming`), FLOP-cached."""
        from repro.fl.latency import estimate_client_time

        return estimate_client_time(
            client_id,
            model,
            self.profiles[client_id],
            steps,
            self.batch_input_shape,
            payload_bytes,
            efficiency=self.efficiency,
            flops_step=self._flops_step(model),
        )

    def client_time(
        self,
        client_id: int,
        model: "Module",
        steps: int,
        payload_bytes: int,
        slowdown: float = 1.0,
        extra_delay_s: float = 0.0,
    ) -> float:
        """Simulated seconds for one client's round.

        ``slowdown`` scales compute (straggler injection); ``extra_delay_s``
        adds retransmission backoff. Everything else is the latency model.
        """
        timing = self.client_timing(client_id, model, steps, payload_bytes)
        return timing.compute_s * slowdown + timing.comm_s + extra_delay_s

    def round_timing(
        self,
        models: "Sequence[Module]",
        steps_per_client: "Sequence[int]",
        payload_bytes: int,
        client_ids: "Sequence[int] | None" = None,
    ):
        """Synchronous-round view over a set of clients
        (:class:`repro.fl.latency.RoundTiming`).

        This is the one time model shared by the straggler analysis in
        ``benchmarks/bench_system_efficiency.py`` and the deadline/buffer
        policies: all three consume the same per-client timings, so a
        policy comparison never mixes two latency derivations.
        """
        from repro.fl.latency import RoundTiming

        ids = list(client_ids) if client_ids is not None else list(range(len(models)))
        if not ids:
            raise ValueError("no clients to time")
        if not len(models) == len(steps_per_client) == len(ids):
            raise ValueError("models/steps/client_ids lists must align")
        return RoundTiming(
            tuple(
                self.client_timing(cid, model, steps, payload_bytes)
                for cid, model, steps in zip(ids, models, steps_per_client)
            )
        )
