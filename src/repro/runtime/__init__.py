"""Federated execution runtime: executors, fault injection, straggler policy.

Every FL algorithm's round loop runs *through* this package (see
:class:`repro.runtime.FLRuntime`): client work is submitted to a pluggable
executor (in-process serial, or fork-based process-parallel), seeded fault
injection decides per-(round, client) dropout / straggler slowdown / uplink
loss, and a virtual-clock deadline policy picks which survivors the server
aggregates. Serial and parallel backends are bit-identical; faults are
deterministic in ``(seed, round, client)``.

Import-order note: submodules are loaded leaf-first (``faults``/``executors``
have no ``repro.fl`` dependency) so that ``repro.fl`` ↔ ``repro.runtime``
cross-imports resolve under either entry point.
"""

from repro.runtime.adversary import (
    ATTACK_KINDS,
    LABELFLIP,
    AdversaryPlan,
    AttackSpec,
    poison_states,
)
from repro.runtime.faults import (
    NO_FAULTS,
    ClientFaults,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)
from repro.runtime.executors import (
    EXECUTOR_KINDS,
    ClientExecutor,
    ClientUpdate,
    ParallelExecutor,
    SerialExecutor,
    fork_available,
    make_executor,
)
from repro.runtime.async_server import (
    AGGREGATION_KINDS,
    AggregationPolicy,
    BufferedAggregation,
    BufferedMerge,
    SyncAggregation,
    UpdateBuffer,
    make_aggregation_policy,
    staleness_weight,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.runtime import (
    FAILURE_REASONS,
    REJECTED_UPDATE,
    STALE_EVICTED,
    FLRuntime,
    RoundOutcome,
    ordered_failure_counts,
)

__all__ = [
    "ATTACK_KINDS",
    "LABELFLIP",
    "AdversaryPlan",
    "AttackSpec",
    "poison_states",
    "REJECTED_UPDATE",
    "AGGREGATION_KINDS",
    "AggregationPolicy",
    "SyncAggregation",
    "BufferedAggregation",
    "BufferedMerge",
    "UpdateBuffer",
    "make_aggregation_policy",
    "staleness_weight",
    "FAILURE_REASONS",
    "STALE_EVICTED",
    "ordered_failure_counts",
    "FaultSpec",
    "ClientFaults",
    "FaultPlan",
    "parse_fault_spec",
    "NO_FAULTS",
    "ClientExecutor",
    "ClientUpdate",
    "SerialExecutor",
    "ParallelExecutor",
    "EXECUTOR_KINDS",
    "make_executor",
    "fork_available",
    "VirtualClock",
    "FLRuntime",
    "RoundOutcome",
]
