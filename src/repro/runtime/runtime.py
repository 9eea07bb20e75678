"""The federated execution runtime: executor + faults + straggler policy.

:class:`FLRuntime` bundles the three orthogonal pieces the round loop in
:mod:`repro.fl.algorithms.base` consumes:

- a :class:`~repro.runtime.executors.ClientExecutor` (serial or
  process-parallel) that runs per-client work;
- an optional :class:`~repro.runtime.faults.FaultPlan` injecting dropout,
  straggler slowdown and lossy uplinks, deterministically in
  ``(seed, round, client)``;
- an optional deadline straggler policy: over-provision the sample by the
  expected dropout (``ceil(K / (1 - dropout))``), accept the first ``K``
  survivors whose :class:`~repro.runtime.clock.VirtualClock` finish time
  beats the deadline, and aggregate only those.

The default runtime (``FLRuntime.from_config`` with no workers/faults/
deadline configured) degenerates to exactly the pre-runtime behaviour:
in-process execution (homogeneous MLP cohorts stacked, bit-identical to the
serial loop), every sampled client participates, zero overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.runtime.adversary import AdversaryPlan
from repro.runtime.async_server import (
    AggregationPolicy,
    SyncAggregation,
    make_aggregation_policy,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.executors import ClientExecutor, make_executor
from repro.runtime.faults import NO_FAULTS, ClientFaults, FaultPlan, parse_fault_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.federated import FederatedDataset
    from repro.fl.config import FLConfig

__all__ = [
    "FLRuntime",
    "RoundOutcome",
    "FAILURE_REASONS",
    "STALE_EVICTED",
    "REJECTED_UPDATE",
    "ordered_failure_counts",
]

# A buffered update staler than the policy's max_staleness bound: evicted
# from the server buffer instead of merged. Recorded against the round that
# *evicted* the update, not the round that dispatched it.
STALE_EVICTED = "stale-evicted"

# A payload that cleared the uplink but failed the server-boundary
# validate_update gate (non-finite values, signature mismatch, norm above
# the configured ceiling): rejected before aggregation instead of crashing
# the server or silently poisoning the global model.
REJECTED_UPDATE = "rejected-update"

# The canonical failure taxonomy, in reporting order. Failure counts and
# summaries iterate this tuple so outputs are deterministic regardless of
# the order failures were recorded in.
FAILURE_REASONS = (
    "dropout",
    "uplink-lost",
    REJECTED_UPDATE,
    "deadline",
    "surplus",
    STALE_EVICTED,
    "worker-crash",
)


def ordered_failure_counts(reasons) -> dict[str, int]:
    """Count failure reasons in the canonical taxonomy order.

    Reasons outside :data:`FAILURE_REASONS` (custom runtimes) follow the
    canonical ones, sorted lexicographically — never insertion order.
    """
    counts: dict[str, int] = {}
    for reason in reasons:
        counts[reason] = counts.get(reason, 0) + 1
    ordered = {r: counts.pop(r) for r in FAILURE_REASONS if r in counts}
    for r in sorted(counts):
        ordered[r] = counts[r]
    return ordered


@dataclass
class RoundOutcome:
    """What one executed round measured: :meth:`FLAlgorithm.round` returns
    it and the run loop turns it into that round's ``RoundRecord``.

    ``aggregated`` lists the merged clients. ``failures`` maps client id →
    reason: ``"dropout"`` (never started),
    ``"uplink-lost"`` (all retransmissions lost), ``"deadline"`` (finished
    after the round deadline), ``"surplus"`` (on time, but the server had
    already accepted its target K — over-provisioning headroom),
    ``"stale-evicted"`` (a buffered update exceeded the policy's
    ``max_staleness`` bound before the server merged it), or
    ``"worker-crash"`` (a real executor worker died and retries on fresh
    pools were exhausted — the one reason that is *not* injected).

    ``staleness`` histograms the merged updates by server-version lag
    (synchronous rounds record ``{0: n}``); ``buffer_len`` is the number
    of updates still pending in the server buffer after this round's
    aggregation (always 0 in the synchronous regime).
    """

    aggregated: list[int]
    failures: dict[int, str]
    sim_time_s: float
    staleness: dict[int, int]
    buffer_len: int


@dataclass
class FLRuntime:
    """Execution policy for one FL run (see module docstring)."""

    executor: ClientExecutor = field(default_factory=make_executor)
    plan: "FaultPlan | None" = None
    deadline_s: "float | None" = None
    over_provision: bool = True
    clock: "VirtualClock | None" = None
    aggregation: AggregationPolicy = field(default_factory=SyncAggregation)
    adversary: "AdversaryPlan | None" = None

    @property
    def faulty(self) -> bool:
        """Whether any fault axis can fire."""
        return self.plan is not None and not self.plan.spec.is_null

    @property
    def adversarial(self) -> bool:
        """Whether any client can be assigned a Byzantine attack role."""
        return self.adversary is not None

    def attack_role(self, round_idx: int, client_id: int) -> "str | None":
        """This client's attack role for one round (``None`` = honest);
        pure in ``(seed, round, client)`` like every other fault stream."""
        if self.adversary is None:
            return None
        return self.adversary.role(round_idx, client_id)

    @property
    def simulates_time(self) -> bool:
        return self.clock is not None

    @property
    def buffered(self) -> bool:
        """Whether the server runs the FedBuff-style buffered regime."""
        return self.aggregation.buffered

    def decide(self, round_idx: int, client_id: int) -> ClientFaults:
        if self.plan is None:
            return NO_FAULTS
        return self.plan.decide(round_idx, client_id)

    def provision(self, target_k: int, num_clients: int) -> int:
        """How many clients to sample so ~``target_k`` survive dropout."""
        if not (self.over_provision and self.faulty) or self.plan.spec.dropout <= 0.0:
            return target_k
        return min(num_clients, math.ceil(target_k / (1.0 - self.plan.spec.dropout)))

    def retry_delay_s(self, faults: ClientFaults) -> float:
        if self.plan is None:
            return 0.0
        return self.plan.retry_delay_s(faults.uplink_attempts)

    @classmethod
    def from_config(cls, cfg: "FLConfig", fed: "FederatedDataset") -> "FLRuntime":
        """Build the runtime an :class:`FLConfig` describes.

        Reads ``cfg.workers`` (executor), ``cfg.faults`` (fault spec
        string), ``cfg.deadline``, ``cfg.over_provision`` and the
        aggregation-policy fields (``cfg.aggregation`` / ``buffer_size`` /
        ``staleness_alpha`` / ``max_staleness``). The virtual clock is
        materialized only when a policy needs it (faults or a deadline), so
        plain runs skip device sampling and FLOP profiling entirely —
        identically in both aggregation regimes, which is what makes the
        buffered regime's degenerate configuration bit-identical to sync.
        Under ``aggregation="buffered"``, ``deadline`` only materializes
        the clock; the buffer replaces the drop-late-clients policy.
        """
        spec = parse_fault_spec(cfg.faults)
        plan = FaultPlan(spec, seed=cfg.seed) if spec is not None else None
        adversary = (
            AdversaryPlan(spec.attacks, seed=cfg.seed)
            if spec is not None and not spec.attacks.is_null
            else None
        )
        clock = None
        if (plan is not None and not spec.is_null) or cfg.deadline is not None:
            from repro.fl.devices import sample_device_profiles

            # Both federation flavors expose sample_shape without touching
            # a client shard (a lazy federation would otherwise have to
            # materialize client 0 just to size the clock's batches).
            clock = VirtualClock(
                profiles=sample_device_profiles(fed.num_clients, seed=cfg.seed),
                batch_input_shape=(cfg.batch_size, *fed.sample_shape),
            )
        return cls(
            executor=make_executor(cfg.workers, cfg.executor),
            plan=plan,
            deadline_s=cfg.deadline,
            over_provision=cfg.over_provision,
            clock=clock,
            aggregation=make_aggregation_policy(
                cfg.aggregation,
                buffer_size=cfg.buffer_size,
                staleness_alpha=cfg.staleness_alpha,
                max_staleness=cfg.max_staleness,
            ),
            adversary=adversary,
        )
