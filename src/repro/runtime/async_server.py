"""Buffered (FedBuff-style) server aggregation: policies + event queue.

The synchronous regime ends a round when every accepted client has
reported; the deadline policy simply *drops* late clients — throwing away
exactly the straggler compute the paper tries to harvest. This module adds
the alternative regime. Both run the round loop's one accept → merge step
over an :class:`UpdateBuffer`; the :class:`AggregationPolicy` says what
becomes of an update the step did not merge:

- :class:`SyncAggregation` — the buffer lives for one round; the server
  aggregates the round's first ``K`` on-time survivors and drops the rest
  (``deadline`` / ``surplus``); and
- :class:`BufferedAggregation` — the buffer lives for the run, keyed by
  virtual arrival time, and the server aggregates the earliest
  ``buffer_size`` arrivals per server step, so an update dispatched in
  round *t* can land in server version *t + s*. Each merged update is
  discounted by the staleness weight ``w(s) = 1 / (1 + s)^alpha`` (Nguyen
  et al., FedBuff), and updates staler than ``max_staleness`` are evicted
  instead of merged.

Determinism: arrival times come from the existing
:class:`~repro.runtime.clock.VirtualClock` (pure in ``(seed, round,
client)``), the event queue breaks ties on ``(arrival, dispatch round,
client id)``, and the buffer state round-trips through
``FLAlgorithm.server_state()`` — so buffered runs replay bit-identically,
including across a mid-buffer checkpoint/resume.

Parity anchor: ``BufferedAggregation(buffer_size=num_sampled,
staleness_alpha=0)`` drains exactly the round's own cohort with discount
1.0 and reproduces the synchronous path bit for bit (``aggregate_buffered``
delegates an all-fresh merge straight to ``aggregate``).

Like the rest of :mod:`repro.runtime`, this module must not import
:mod:`repro.fl` (the algorithm layer imports us).
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executors import ClientUpdate

__all__ = [
    "AGGREGATION_KINDS",
    "AggregationPolicy",
    "SyncAggregation",
    "BufferedAggregation",
    "make_aggregation_policy",
    "staleness_weight",
    "PendingUpdate",
    "BufferedMerge",
    "UpdateBuffer",
]

AGGREGATION_KINDS = ("sync", "buffered")


def staleness_weight(staleness: int, alpha: float) -> float:
    """The FedBuff polynomial discount ``w(s) = 1 / (1 + s)^alpha``.

    ``alpha = 0`` gives exactly 1.0 for any staleness (the uniform /
    parity case — note ``x ** -0.0 == 1.0`` exactly in IEEE arithmetic);
    larger ``alpha`` discounts stale knowledge harder.
    """
    if staleness < 0:
        raise ValueError(f"staleness must be >= 0; got {staleness}")
    if alpha < 0:
        raise ValueError(f"staleness alpha must be >= 0; got {alpha}")
    return float(1.0 + staleness) ** -alpha


@dataclass(frozen=True)
class AggregationPolicy:
    """How the server folds client updates into its state (base class).

    Every policy merges the earliest ``buffer_size`` arrivals per server
    step (``None`` = the sampler's per-round cohort) at weight
    :meth:`weight`; ``buffered`` says whether the rest waits for a later
    server version or is dropped with the round.
    """

    kind = "sync"
    buffer_size = None
    max_staleness = None

    @property
    def buffered(self) -> bool:
        return False

    def weight(self, staleness: int) -> float:
        return 1.0


@dataclass(frozen=True)
class SyncAggregation(AggregationPolicy):
    """Synchronous rounds: aggregate each round's survivors immediately."""

    kind = "sync"


@dataclass(frozen=True)
class BufferedAggregation(AggregationPolicy):
    """FedBuff-style buffered aggregation with staleness-weighted fusion.

    Parameters
    ----------
    buffer_size:
        Aggregate after this many arrivals per server step (``K`` in the
        FedBuff paper). ``None`` defaults to the sampler's per-round
        cohort size, which makes the regime's degenerate configuration
        (everything fresh, ``alpha = 0``) reproduce synchronous rounds.
    staleness_alpha:
        Exponent of the polynomial staleness discount
        ``w(s) = 1/(1+s)^alpha``; 0 = uniform.
    max_staleness:
        Updates staler than this many server versions are evicted
        (recorded as ``"stale-evicted"`` failures) instead of merged;
        ``None`` = never evict.
    """

    kind = "buffered"
    buffer_size: "int | None" = None
    staleness_alpha: float = 0.5
    max_staleness: "int | None" = None

    def __post_init__(self) -> None:
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1; got {self.buffer_size}")
        if self.staleness_alpha < 0:
            raise ValueError(
                f"staleness_alpha must be >= 0; got {self.staleness_alpha}"
            )
        if self.max_staleness is not None and self.max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0; got {self.max_staleness}")

    @property
    def buffered(self) -> bool:
        return True

    def weight(self, staleness: int) -> float:
        return staleness_weight(staleness, self.staleness_alpha)


def make_aggregation_policy(
    kind: "str | None",
    buffer_size: "int | None" = None,
    staleness_alpha: float = 0.5,
    max_staleness: "int | None" = None,
) -> AggregationPolicy:
    """Build the policy an :class:`~repro.fl.algorithms.base.FLConfig`
    describes (``cfg.aggregation`` / ``buffer_size`` / ``staleness_alpha``
    / ``max_staleness``)."""
    kind = (kind or "sync").strip().lower()
    if kind not in AGGREGATION_KINDS:
        raise ValueError(
            f"aggregation must be one of {AGGREGATION_KINDS}; got {kind!r}"
        )
    if kind == "sync":
        return SyncAggregation()
    return BufferedAggregation(
        buffer_size=buffer_size,
        staleness_alpha=staleness_alpha,
        max_staleness=max_staleness,
    )


@dataclass
class PendingUpdate:
    """One client update waiting in the server's buffer.

    ``rel_time`` is the client's finish time relative to its dispatch
    instant (exactly what :meth:`VirtualClock.client_time` returned);
    ``arrival`` is the absolute virtual-clock arrival the heap orders on
    (dispatch instant + ``rel_time``). Keeping both lets the round loop
    compute a fresh update's round time from ``rel_time`` directly, so the
    all-fresh buffered round is bitwise identical to the synchronous one
    (``(now + t) - now`` is not IEEE-exactly ``t``).
    """

    dispatch_round: int
    client_id: int
    rel_time: float
    arrival: float
    update: "ClientUpdate"


@dataclass
class BufferedMerge:
    """One buffer entry selected for aggregation this server step."""

    update: "ClientUpdate"
    staleness: int  # merge round − dispatch round (server versions spanned)
    discount: float  # w(staleness) under the policy's alpha
    wait_s: float  # arrival relative to the merging round's start

    def discounted(self) -> "ClientUpdate":
        """The update with its aggregation weight rescaled by the discount."""
        return replace(self.update, weight=self.update.weight * self.discount)


def _update_state(update: "ClientUpdate") -> dict:
    """Decompose a :class:`ClientUpdate` into plain checkpointable data.

    Field-by-field (rather than pickling the dataclass) so checkpoint
    consumers — and reprolint's ``_deep_equal`` — see dicts of numpy
    arrays/scalars they can compare structurally.
    """
    return copy.deepcopy(
        {
            "client_id": update.client_id,
            "states": update.states,
            "weight": update.weight,
            "steps": update.steps,
            "stats": update.stats,
            "extra": update.extra,
            "local_state": update.local_state,
            "received": update.received,
        }
    )


class UpdateBuffer:
    """Event queue of in-flight client updates, ordered by virtual arrival.

    The heap key is ``(arrival, dispatch_round, client_id)`` — unique per
    entry (a client reports at most once per round), so ordering never
    depends on heap internals and a checkpointed buffer reloads into the
    identical drain order.
    """

    def __init__(self, policy: AggregationPolicy) -> None:
        self.policy = policy
        self.virtual_now = 0.0  # server virtual clock: advances per merge
        self.version = 0  # server version counter: one per aggregation
        self._heap: "list[tuple[float, int, int, PendingUpdate]]" = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        dispatch_round: int,
        client_id: int,
        rel_time: float,
        update: "ClientUpdate",
    ) -> None:
        """Enqueue one surviving update, arriving ``rel_time`` virtual
        seconds after the current server instant."""
        arrival = self.virtual_now + rel_time
        entry = PendingUpdate(dispatch_round, client_id, rel_time, arrival, update)
        heapq.heappush(self._heap, (arrival, dispatch_round, client_id, entry))

    def drain(
        self,
        merge_round: int,
        target_k: "int | None",
        deadline_s: "float | None" = None,
    ) -> "tuple[list[BufferedMerge], dict[int, int]]":
        """Pop arrivals in virtual-time order until ``target_k`` accepted.

        ``target_k = None`` drains everything (the end-of-run flush);
        ``deadline_s`` stops at the first update that finished later than
        that after its dispatch. Returns ``(merges, evicted)`` where
        ``evicted`` maps client id → staleness for entries beyond the
        policy's ``max_staleness`` bound (evictions do not consume buffer
        capacity).
        """
        policy = self.policy
        start = self.virtual_now
        merges: "list[BufferedMerge]" = []
        evicted: "dict[int, int]" = {}
        while self._heap and (target_k is None or len(merges) < target_k):
            if deadline_s is not None and self._heap[0][3].rel_time > deadline_s:
                break
            arrival, _, cid, entry = heapq.heappop(self._heap)
            staleness = merge_round - entry.dispatch_round
            if policy.max_staleness is not None and staleness > policy.max_staleness:
                evicted[cid] = staleness
                continue
            wait = entry.rel_time if staleness == 0 else max(0.0, arrival - start)
            merges.append(
                BufferedMerge(entry.update, staleness, policy.weight(staleness), wait)
            )
        return merges, evicted

    def _pending(self) -> "list[PendingUpdate]":
        """The queued entries in drain order."""
        return [item[3] for item in sorted(self._heap, key=lambda item: item[:3])]

    def clear(self) -> "list[PendingUpdate]":
        """Drop everything still pending; returns the dropped entries."""
        dropped = self._pending()
        self._heap = []
        return dropped

    def advance(self, sim_time_s: float) -> None:
        """Move the server clock past one aggregation and bump the version."""
        self.virtual_now += sim_time_s
        self.version += 1

    # checkpointing ------------------------------------------------------ #

    def state(self) -> dict:
        """Plain-data snapshot (copies, not aliases) for ``server_state``."""
        return {
            "version": self.version,
            "virtual_now": self.virtual_now,
            "pending": [
                {
                    "arrival": entry.arrival,
                    "dispatch_round": entry.dispatch_round,
                    "client_id": entry.client_id,
                    "rel_time": entry.rel_time,
                    "update": _update_state(entry.update),
                }
                for entry in self._pending()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Inverse of :meth:`state`; restores the identical drain order."""
        from repro.runtime.executors import ClientUpdate

        self.version = int(state["version"])
        self.virtual_now = float(state["virtual_now"])
        self._heap = []
        for entry in state["pending"]:
            update = ClientUpdate(**copy.deepcopy(entry["update"]))
            pending = PendingUpdate(
                dispatch_round=int(entry["dispatch_round"]),
                client_id=int(entry["client_id"]),
                rel_time=float(entry["rel_time"]),
                arrival=float(entry["arrival"]),
                update=update,
            )
            self._heap.append(
                (pending.arrival, pending.dispatch_round, pending.client_id, pending)
            )
        heapq.heapify(self._heap)
