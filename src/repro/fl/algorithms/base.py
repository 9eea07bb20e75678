"""FL algorithm base class: config, round loop, evaluation and recording.

The round loop runs through the federated execution runtime
(:mod:`repro.runtime`): per-client work is *submitted* to a pluggable
executor (serial or process-parallel) instead of looped inline, seeded
fault injection can drop clients, slow stragglers and lose uplink
messages, and a virtual-clock deadline policy decides which survivors the
server aggregates.

Subclasses implement the three per-round hooks —

- :meth:`FLAlgorithm.client_payload` (parent-side: what goes down the wire),
- :meth:`FLAlgorithm.client_work` (client-side: train, return a
  :class:`~repro.runtime.executors.ClientUpdate`; may run in a worker
  process, so it must not mutate algorithm state it expects to keep),
- :meth:`FLAlgorithm.aggregate` (parent-side: fold accepted updates into
  the global model)

— and optionally :meth:`FLAlgorithm.apply_client_update` for persistent
on-device state. Overriding :meth:`FLAlgorithm.round` wholesale remains
supported for custom algorithms (it then bypasses fault injection).
Everything else — sampling, metering, history — is shared, so paired
comparisons differ only in the algorithm itself.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
import time
from typing import Callable

from repro.data.federated import FederatedDataset
from repro.fl.checkpoint import (
    RunCheckpoint,
    load_run_checkpoint,
    run_checkpoint_path,
    save_run_checkpoint,
)
from repro.fl.comm import Channel, CommMeter
from repro.fl.config import FLConfig, knobs
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.metrics import average_local_accuracy, evaluate_model
from repro.fl.robust import parse_defense, validate_update
from repro.fl.sampler import ClientSampler
from repro.fl.state_store import LazyFactoryBank
from repro.fl.trainer import LocalTrainer, train_stacked
from repro.nn.batched import build_stacked, fully_batched
from repro.nn.module import Module
from repro.nn.serialization import (
    average_states,
    state_dict_num_bytes,
    state_dict_signature,
)
from repro.runtime.adversary import LABELFLIP, labelflip_clone, poison_states
from repro.runtime.async_server import BufferedMerge, UpdateBuffer
from repro.runtime.executors import ClientUpdate
from repro.runtime.runtime import (
    REJECTED_UPDATE,
    STALE_EVICTED,
    FLRuntime,
    RoundOutcome,
)
from repro.utils.logging import get_logger
from repro.utils.registry import Registry

__all__ = ["FLConfig", "FLAlgorithm", "ALGORITHM_REGISTRY"]

log = get_logger("fl")

ALGORITHM_REGISTRY: Registry[type] = Registry("algorithm")

ModelFn = Callable[[], Module]

# Widest stack the grouping rule builds (DESIGN §11 has the sweep): a
# cache-sized stack trains faster than one cohort-wide stack, and the width
# bounds the activation memory a stacked step holds.
MAX_STACK_WIDTH = 64


def split_cohort(cohort: list) -> "list[list]":
    """``cohort`` cut, in order, into ⌈n / MAX_STACK_WIDTH⌉ stacks whose
    sizes differ by at most one — so a cohort of two or more never leaves a
    singleton tail."""
    n = len(cohort)
    parts = -(-n // MAX_STACK_WIDTH)
    return [cohort[i * n // parts:(i + 1) * n // parts] for i in range(parts)]


class FLAlgorithm:
    """Base federated-learning driver.

    Parameters
    ----------
    model_fn:
        Zero-arg constructor for the (global/client) model architecture.
    fed:
        The federated data views.
    config:
        Shared hyperparameters.
    runtime:
        Execution runtime (executor + faults + straggler policy). Defaults
        to the one ``config`` describes — which, with no workers/faults/
        deadline configured, is plain serial full-participation execution.
    """

    name = "base"

    def __init__(
        self,
        model_fn: ModelFn,
        fed: FederatedDataset,
        config: FLConfig,
        runtime: "FLRuntime | None" = None,
    ) -> None:
        fed.validate()
        self.model_fn = model_fn
        self.fed = fed
        self.cfg = config
        from repro.fl.compression import make_codec  # local: avoids import cycle

        self.meter = CommMeter()
        self.channel = Channel(self.meter, codec=make_codec(config.compression))
        self.sampler = ClientSampler(
            fed.num_clients,
            config.sample_ratio,
            config.seed,
            max_cohort=config.max_cohort,
        )
        self.runtime = runtime if runtime is not None else FLRuntime.from_config(config, fed)
        self.global_model = model_fn()
        # One reusable scratch model per algorithm run: each client loads
        # its state into it, trains, uploads — avoids N re-constructions.
        self._scratch = model_fn()
        # Trainers are built on demand: :meth:`make_trainer` is pure in the
        # client id, so a million-client federation holds only the touched
        # cohort's trainers (and, under a lazy federation, only the cohort's
        # data shards — see _prefetch_clients). Indexing and iteration keep
        # the old ``list[LocalTrainer]`` surface.
        self.trainers = LazyFactoryBank(self.make_trainer, fed.num_clients)
        self._last_outcome: "RoundOutcome | None" = None
        # Buffered (FedBuff-style) server regime: the event queue of
        # in-flight updates, kept across rounds. None under synchronous
        # aggregation, whose queue lives for one round (see round()). The
        # base class owns its checkpointing (server_state /
        # load_server_state), so subclass overrides must merge super()'s dict.
        policy = self.runtime.aggregation
        self._update_buffer = UpdateBuffer(policy) if policy.buffered else None
        # Per-merge staleness discounts, set by aggregate_buffered for the
        # duration of one aggregate() call so fusion-based algorithms can
        # weight ensemble members; None whenever every update is fresh.
        self._staleness_discounts: "list[float] | None" = None
        # Robust aggregation policy (None = plain averaging, the bitwise
        # pre-defense path). Stateful defenses ride in server_state().
        self.defense = parse_defense(config.defense)
        self.setup()

    # hooks ------------------------------------------------------------- #

    def setup(self) -> None:
        """Algorithm-specific state initialization (control variates, ...)."""

    def make_trainer(self, cid: int) -> LocalTrainer:
        """Construct client ``cid``'s local trainer.

        Must be pure in ``cid`` (given fixed config/seed): trainers are
        built lazily and may be dropped and rebuilt between rounds, so any
        per-client customization (SCAFFOLD zeroes momentum) belongs here,
        not in a post-hoc mutation loop over ``self.trainers``.
        """
        return LocalTrainer(
            self.fed.client_train[cid],
            batch_size=self.cfg.batch_size,
            lr=self.cfg.lr,
            momentum=self.cfg.momentum,
            weight_decay=self.cfg.weight_decay,
            seed=self.cfg.seed * 7919 + cid,
        )

    # adversary / defense ------------------------------------------------ #

    def _prefetch_clients(self, round_idx: int, active: "list[int]") -> None:
        """Bound resident per-client state to this round's cohort.

        Under a lazy federation (one exposing ``prefetch``) the cohort's
        data shards are materialized in a single streaming pass and
        everything outside the cohort is evicted; cached trainers over
        evicted shards are dropped too, so they stop pinning the arrays.
        Construction purity makes all of this invisible to the trajectory —
        a rebuilt shard/trainer is bitwise the evicted one. Eager
        federations skip the hook entirely, keeping the legacy
        keep-everything behavior.
        """
        prefetch = getattr(self.fed, "prefetch", None)
        if prefetch is None:
            return
        prefetch(active)
        self.trainers.retain(set(active))

    def _client_trainer(self, round_idx: int, cid: int) -> LocalTrainer:
        """The trainer a client-work hook must use for this (round, client)
        pair: the honest one, or a flipped-label clone of it (built on
        demand, never stored) when the adversary assigns the ``labelflip``
        role. Pure in ``(seed, round, client)``, so every executor backend
        resolves the same trainer."""
        trainer = self.trainers[cid]
        if self.runtime.attack_role(round_idx, cid) == LABELFLIP:
            return labelflip_clone(trainer, self.fed.num_classes)
        return trainer

    def _combine_states(self, states, weights, reference=None):
        """Fuse client state dicts under the configured robust-aggregation
        policy. With no defense this *is* :func:`average_states` — the
        bitwise pre-defense path every fingerprint replay relies on.
        ``reference`` (round-start global state for full-weight inputs,
        ``None`` for delta-space inputs) anchors norm-clipping defenses."""
        if self.defense is None:
            return average_states(states, weights)
        return self.defense.combine(states, weights, reference=reference)

    def _ensemble_member_filter(self, stacked, base=None):
        """Member weights for an (M, N, C) ensemble logit stack under the
        configured defense; returns ``base`` unchanged (possibly ``None``)
        when no defense is set or nothing is filtered, preserving the
        bitwise unweighted ensemble path."""
        if self.defense is None:
            return base
        return self.defense.member_filter(stacked, base)

    def client_payload(self, round_idx: int, cid: int) -> dict:
        """Parent-side: build (and meter) one client's downlink payload.

        Whatever crosses the wire must go through ``self.channel`` here so
        the byte ledger stays exact; device-local inputs (e.g. SCAFFOLD's
        client control) may be added unmetered. The returned mapping is
        handed to :meth:`client_work`, possibly in a worker process, so it
        must be picklable.
        """
        state = self.channel.download(cid, self.global_model.state_dict(copy=False))
        return {"state": state}

    def client_work(self, round_idx: int, cid: int, payload: dict) -> ClientUpdate:
        """One client's local pass; default is plain local SGD (FedAvg).

        May execute in a forked worker: it sees a round-start snapshot of
        the algorithm and must return everything it changed inside the
        :class:`ClientUpdate` (in-place mutations are lost under the
        parallel executor).
        """
        self._scratch.load_state_dict(payload["state"])
        trainer = self._client_trainer(round_idx, cid)
        stats = trainer.train(self._scratch, self.cfg.local_epochs, round_idx)
        return ClientUpdate(
            client_id=cid,
            states={"state": self._scratch.state_dict()},
            weight=float(self.fed.client_size(cid)),
            steps=stats.steps,
            stats=stats,
        )

    def _stackable_cohorts(
        self,
        round_idx: int,
        tasks: "list[tuple[int, dict]]",
        local: "Callable[[int], Module] | None" = None,
    ):
        """This round's tasks grouped into the stacks (lists of tasks) that
        may each train as one program — the rule every
        :meth:`client_work_batched` shares.

        A client joins a cohort when its payload carries the communicated
        model's signature and it is not a ``labelflip`` adversary (that one
        trains a flipped-label view through the serial :meth:`client_work`).
        Cohort members share a shard size — an equal shard plus the shared
        ``batch_size`` gives an identical per-step batch schedule, which is
        what lets the stack train in lockstep and replay bit-identically
        to the serial loop — and, when the algorithm trains a persistent
        on-device model beside the communicated one (FedKEMF), that model's
        type and state signature, ``local(cid)``. A singleton stack is pure
        overhead, so only cohorts of two or more are kept.

        Under an executor with ``fully_batched_only`` set (the in-process
        default) a cohort stacks only when every model it trains is
        :func:`~repro.nn.batched.fully_batched`. Each kept cohort is split
        by :func:`split_cohort` into stacks of at most ``MAX_STACK_WIDTH``.
        """
        only_full = getattr(self.runtime.executor, "fully_batched_only", False)
        if only_full and not fully_batched(self._scratch):
            return []
        sig = state_dict_signature(self._scratch.state_dict(copy=False))
        groups: "dict[tuple, list[tuple[int, dict]]]" = {}
        for cid, payload in tasks:
            state = payload.get("state")
            if state is None or state_dict_signature(state) != sig:
                continue
            if self.runtime.attack_role(round_idx, cid) == LABELFLIP:
                continue
            arch = None
            if local is not None:
                model = local(cid)
                arch = type(model), state_dict_signature(model.state_dict(copy=False))
            groups.setdefault((self.fed.client_size(cid), arch), []).append((cid, payload))
        stacks: "list[list[tuple[int, dict]]]" = []
        for group in groups.values():
            if len(group) < 2:
                continue
            if only_full and local is not None and not fully_batched(local(group[0][0])):
                continue
            stacks.extend(split_cohort(group))
        return stacks

    def client_work_batched(
        self, round_idx: int, tasks: "list[tuple[int, dict]]"
    ) -> "dict[int, ClientUpdate] | None":
        """Fold homogeneous cohorts of this round's tasks into stacked
        training (:class:`~repro.runtime.executors.BatchedExecutor` calls
        this). Returns ``{cid: update}`` for every client handled — the
        executor routes the rest through :meth:`client_work` — or ``None``
        when no batched path applies.

        The default covers algorithms that keep the stock
        :meth:`client_work` (plain local SGD: FedAvg and the server-side
        optimizer variants), over the cohorts of
        :meth:`_stackable_cohorts`. Algorithms that customise local
        training (FedProx, SCAFFOLD, FedNova) fall back to serial
        automatically.
        """
        if type(self).client_work is not FLAlgorithm.client_work:
            return None  # custom local pass: no generic stacked equivalent
        results: "dict[int, ClientUpdate]" = {}
        for group in self._stackable_cohorts(round_idx, tasks):
            stacked = build_stacked(self._scratch, len(group))
            if stacked is None:
                continue  # architecture not stackable: serial fallback
            stacked.load_client_states([payload["state"] for _, payload in group])
            stats = train_stacked(
                stacked,
                [self.trainers[cid] for cid, _ in group],
                self.cfg.local_epochs,
                round_idx,
            )
            for i, (cid, _payload) in enumerate(group):
                results[cid] = ClientUpdate(
                    client_id=cid,
                    states={"state": stacked.client_state(i)},
                    weight=float(self.fed.client_size(cid)),
                    steps=stats[i].steps,
                    stats=stats[i],
                )
        return results or None

    def apply_client_update(self, update: ClientUpdate) -> None:
        """Parent-side write-back of persistent per-client state.

        Runs for every *trained* client (even ones that later fail the
        uplink or deadline — their on-device state advanced regardless of
        what the server saw). Default: nothing to write back.
        """

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        """Fold the accepted clients' wire-decoded updates into the server
        state. ``updates`` arrive sorted by client id; each carries its
        channel-decoded payloads in ``update.received``."""
        raise NotImplementedError

    def aggregate_buffered(
        self, round_idx: int, merges: "list[BufferedMerge]"
    ) -> None:
        """Staleness-aware aggregation for the buffered server regime.

        ``merges`` arrive sorted by client id; each pairs a
        :class:`ClientUpdate` with its staleness ``s`` and discount
        ``w(s) = 1/(1+s)^alpha``. The default rescales every update's
        aggregation weight by its discount and delegates to
        :meth:`aggregate`, publishing the per-merge discounts in
        ``self._staleness_discounts`` for the duration of the call so
        fusion-based algorithms (FedDF / FedKEMF) can also weight their
        ensemble members.

        An all-fresh buffer (every discount exactly 1.0) delegates
        directly with the original updates — this is what makes
        ``BufferedAggregation(buffer_size=num_sampled, staleness_alpha=0)``
        bit-identical to the synchronous path.

        Subclasses with a natural *delta* formulation (FedAvg family)
        override this to anchor on the current global state instead of
        renormalizing stale weights away.
        """
        if all(m.discount == 1.0 for m in merges):
            self.aggregate(round_idx, [m.update for m in merges])
            return
        # Ephemeral by construction — published for the duration of the
        # delegated aggregate() call and reset in the finally below, so it
        # never crosses a round boundary and has nothing to checkpoint.
        self._staleness_discounts = [m.discount for m in merges]  # reprolint: allow[RPL704]
        try:
            self.aggregate(round_idx, [m.discounted() for m in merges])
        finally:
            self._staleness_discounts = None

    def server_state(self) -> dict:
        """Algorithm state beyond the global model, for checkpointing.

        Everything mutable that :meth:`aggregate` / :meth:`setup` /
        :meth:`apply_client_update` carry across rounds must be returned
        here (picklable, by value — copies, not aliases): SCAFFOLD's
        control variates, FedOpt's server-optimizer moments, FedKEMF's
        on-device local models, ...

        The base class captures the buffered-aggregation server state
        (pending update buffer, virtual clock, server version counter)
        when the buffered regime is active, so **overrides must merge
        ``super().server_state()``** (and call
        ``super().load_server_state(state)``) — otherwise a mid-buffer
        resume would drop the in-flight updates and drift.

        The loop state itself — sampler position, fault schedules, loader
        shuffles — needs no capture: every stream is a pure function of
        ``(seed, round, client)``, so replay after
        :meth:`load_server_state` is bit-identical by construction.
        """
        state: dict = {}
        if self._update_buffer is not None:
            state["_async_buffer"] = self._update_buffer.state()
        if self.defense is not None and self.defense.stateful:
            # Stateful defenses (autoclip's running threshold) must resume
            # bit-identically or a restored run clips differently and
            # drifts — the property reprolint RPL905 guards.
            state["_defense"] = self.defense.state()
        return state

    def load_server_state(self, state: dict) -> None:
        """Restore what :meth:`server_state` captured (inverse hook)."""
        if self._update_buffer is not None and "_async_buffer" in state:
            self._update_buffer.load_state(state["_async_buffer"])
        if self.defense is not None and self.defense.stateful and "_defense" in state:
            self.defense.load_state(state["_defense"])

    def client_compute_model(self, cid: int) -> Module:
        """The model whose FLOPs dominate this client's local pass (drives
        the virtual clock). Baselines train the communicated model;
        FedKEMF overrides this with the on-device local model."""
        return self.global_model

    def evaluation_model(self) -> Module:
        """The model scored on the global test set each round."""
        return self.global_model

    def local_models_for_eval(self) -> "list[Module] | None":
        """Per-client deployed models for the Table 3 metric.

        Baselines deploy the global model everywhere; FedKEMF overrides this
        with the heterogeneous local models.
        """
        return None

    # round pipeline ---------------------------------------------------- #

    def round(self, round_idx: int, selected: list[int]) -> None:
        """One communication round through the execution runtime.

        Pipeline: fault decisions → downlink broadcast (dropped clients
        never receive it) → executor fan-out of :meth:`client_work` →
        per-client write-back → metered uplink with bounded retransmission
        → virtual-clock first-K acceptance → :meth:`aggregate_buffered`
        over the merged updates.
        """
        rt = self.runtime
        decisions = {cid: rt.decide(round_idx, cid) for cid in selected}
        failures: dict[int, str] = {
            cid: "dropout" for cid in selected if decisions[cid].dropped
        }
        active = [cid for cid in selected if cid not in failures]
        self._prefetch_clients(round_idx, active)
        tasks = [(cid, self.client_payload(round_idx, cid)) for cid in active]
        work = functools.partial(self.client_work, round_idx)
        updates = rt.executor.run_round(work, tasks)
        # Real worker deaths the executor could not recover from: the round
        # proceeds without those clients, recorded like any injected fault.
        crashed = rt.executor.last_round_failures
        if crashed:
            failures.update(crashed)
            active = [cid for cid in active if cid not in crashed]
        for update in updates:
            self.apply_client_update(update)

        # Byzantine payload poisoning, parent-side: applied to the executor's
        # honest output *after* on-device write-back (the attacker corrupts
        # what it uploads, not its own device state) and before the metered
        # uplink. Running it here — pure in (seed, round, client) — makes
        # executor parity under attack trivial. labelflip already happened
        # at training time via _client_trainer.
        reference = self.global_model.state_dict(copy=False)
        if rt.adversarial:
            for update in updates:
                role = rt.attack_role(round_idx, update.client_id)
                if role is not None and role != LABELFLIP:
                    poison_states(
                        role, update.states, reference, rt.adversary,
                        round_idx, update.client_id,
                    )

        # Uplink with retransmission accounting + virtual completion times.
        times: dict[int, float] = {}
        survivors: "list[ClientUpdate]" = []
        for update in updates:
            cid = update.client_id
            faults = decisions[cid]
            attempts = faults.uplink_attempts
            transmissions = (
                attempts if attempts is not None else rt.plan.spec.max_retries + 1
            )
            received = {
                name: self.channel.upload(
                    cid, state, payload_multiplier=float(transmissions)
                )
                for name, state in update.states.items()
            }
            if rt.clock is not None:
                # Wire estimate: uplink payload bytes, doubled for the
                # symmetric downlink broadcast.
                payload_bytes = 2 * sum(
                    state_dict_num_bytes(s) for s in update.states.values()
                )
                times[cid] = rt.clock.client_time(
                    cid,
                    self.client_compute_model(cid),
                    update.steps,
                    payload_bytes,
                    slowdown=faults.slowdown,
                    extra_delay_s=rt.retry_delay_s(faults),
                )
            if attempts is None:
                failures[cid] = "uplink-lost"  # bandwidth burnt, nothing arrived
                continue
            # Server-boundary admission gate: a payload that cleared the
            # uplink can still be malformed or poisoned beyond the ceiling.
            # Rejections enter the failure taxonomy; they never crash the
            # server and never reach aggregation.
            reason = validate_update(
                received, reference=reference, norm_ceiling=self.cfg.norm_ceiling
            )
            if reason is not None:
                failures[cid] = REJECTED_UPDATE
                log.warning(
                    "%s round %d: rejected update from client %d (%s)",
                    self.name, round_idx + 1, cid, reason,
                )
                continue
            update.received = received
            survivors.append(update)

        # Accept → merge, one step for both server regimes. Survivors enter
        # the event queue at their virtual arrival instants, the earliest K
        # arrivals are merged, and client-id order is restored so
        # aggregation is order-stable. The regimes differ in what becomes
        # of the rest. The buffered server keeps its queue across rounds: a
        # late update lands in a later server version with a staleness
        # discount, so the round deadline is ignored by design, and the
        # configured final round (``cfg.rounds``) flushes the queue so no
        # surviving client's work is silently discarded. The sync server's
        # queue lives for this round only: what it does not merge is
        # dropped, as "deadline" past the deadline and as "surplus" when on
        # time but beyond K (over-provisioned sampling provides that
        # slack). Without a clock sync has no arrival order to cut by and
        # accepts every survivor.
        policy = rt.aggregation
        carry = policy.buffered
        buf = self._update_buffer if carry else UpdateBuffer(policy)
        for update in survivors:
            buf.push(round_idx, update.client_id, times.get(update.client_id, 0.0), update)
        drain_all = round_idx + 1 >= self.cfg.rounds if carry else rt.clock is None
        target_k = None if drain_all else policy.buffer_size or self.sampler.per_round
        merges, evicted = buf.drain(
            round_idx, target_k, deadline_s=None if carry else rt.deadline_s
        )
        for cid in evicted:
            # A client may appear twice in one round's ledger (evicted
            # stale update + a fresh fault); keep the first reason.
            failures.setdefault(cid, STALE_EVICTED)
        timed_out = False
        if not carry:
            for entry in buf.clear():
                late = rt.deadline_s is not None and entry.rel_time > rt.deadline_s
                failures[entry.client_id] = "deadline" if late else "surplus"
                timed_out = timed_out or late
        merges.sort(key=lambda m: m.update.client_id)

        if merges:
            self.aggregate_buffered(round_idx, merges)
        else:
            log.warning(
                "%s round %d: no updates to merge (%s); server state unchanged",
                self.name,
                round_idx + 1,
                {cid: r for cid, r in failures.items()},
            )

        # Round time, measured from this round's start: the deadline when
        # the server waited it out, else the latest arrival among the merged
        # updates (a fresh update's own relative finish time, verbatim),
        # else — nothing merged — the latest finisher.
        sim_time = 0.0
        if timed_out:
            sim_time = float(rt.deadline_s)
        elif merges:
            sim_time = max(m.wait_s for m in merges)
        elif times:
            sim_time = max(times.values())
        buf.advance(sim_time)

        stale_counts: "dict[int, int]" = {}
        for m in merges:
            stale_counts[m.staleness] = stale_counts.get(m.staleness, 0) + 1
        self._last_outcome = RoundOutcome(
            round_idx=round_idx,
            sampled=list(selected),
            trained=active,
            aggregated=[m.update.client_id for m in merges],
            failures=failures,
            sim_time_s=sim_time,
            staleness=stale_counts,
            buffer_len=len(buf),
        )

    # checkpoint / resume ------------------------------------------------ #

    def config_fingerprint(self) -> str:
        """Identity of everything that shapes the trajectory.

        Two runs with the same fingerprint produce bit-identical histories;
        a checkpoint only resumes into an algorithm with a matching one.
        The knobs the table marks ``execution_only`` (worker count,
        executor backend, spill budget) are excluded — the parity guarantee
        makes backends interchangeable, so a run may be resumed under a
        different worker count, a different spill budget, or on another
        machine. ``max_cohort`` stays in: capping the cohort changes which
        clients train, hence the trajectory.
        """
        cfg = dataclasses.asdict(self.cfg)
        for k in knobs(FLConfig):
            if k.execution_only:
                del cfg[k.name]
        payload = {
            "algorithm": self.name,
            "model": type(self.global_model).__name__,
            "num_clients": self.fed.num_clients,
            "config": cfg,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def make_checkpoint(self, history: RunHistory, next_round: int) -> RunCheckpoint:
        """Snapshot the complete run state after ``next_round`` rounds."""
        return RunCheckpoint(
            algorithm=self.name,
            fingerprint=self.config_fingerprint(),
            next_round=next_round,
            global_state=self.global_model.state_dict(),
            server_state=self.server_state(),
            meter_state=self.meter.state(),
            history=history.to_dict(),
        )

    def restore_checkpoint(self, ckpt: RunCheckpoint) -> "tuple[RunHistory, int]":
        """Load a checkpoint into this algorithm; returns the partial
        history and the index of the first round still to run."""
        if ckpt.algorithm != self.name:
            raise ValueError(
                f"checkpoint was written by {ckpt.algorithm!r}; "
                f"cannot resume into {self.name!r}"
            )
        fingerprint = self.config_fingerprint()
        if ckpt.fingerprint != fingerprint:
            raise ValueError(
                "checkpoint/config mismatch: the checkpoint was written with "
                f"fingerprint {ckpt.fingerprint}, this run has {fingerprint} "
                "(algorithm, model, federation and all trajectory-shaping "
                "config fields must be identical to resume)"
            )
        self.global_model.load_state_dict(ckpt.global_state)
        self.load_server_state(ckpt.server_state)
        self.meter.load_state(ckpt.meter_state)
        return RunHistory.from_dict(ckpt.history), int(ckpt.next_round)

    # driver ------------------------------------------------------------ #

    def select_clients(self, round_idx: int) -> list[int]:
        """Sample this round's participants (over-provisioned under dropout)."""
        n = self.runtime.provision(self.sampler.per_round, self.fed.num_clients)
        return self.sampler.sample_n(round_idx, n)

    def run(
        self,
        rounds: int | None = None,
        *,
        checkpoint_dir: "str | pathlib.Path | None" = None,
        checkpoint_every: int = 1,
        checkpoint_name: "str | None" = None,
        resume_from: "RunCheckpoint | str | pathlib.Path | bool | None" = None,
        history_stream: "str | pathlib.Path | None" = None,
        history_keep_records: int = 8,
    ) -> RunHistory:
        """Execute the round loop and return the measured history.

        Parameters
        ----------
        rounds:
            *Total* rounds the run should reach (default ``cfg.rounds``) —
            a resumed run continues to the same target, not for ``rounds``
            more.
        checkpoint_dir:
            When set, the complete run state is snapshotted into this
            directory (atomically, one ``<name>.ckpt`` file overwritten in
            place) every ``checkpoint_every`` rounds and after the final
            round.
        checkpoint_every:
            Snapshot cadence in rounds (≥ 1).
        checkpoint_name:
            Checkpoint file stem; defaults to ``<algorithm>-seed<seed>``.
        resume_from:
            Where to continue from: a :class:`RunCheckpoint`, a path to a
            ``.ckpt`` file, or ``True`` (= resume from this run's own
            checkpoint in ``checkpoint_dir`` if one exists, else start
            fresh — the crash-loop-friendly mode the CLI's ``--resume``
            uses). Because every stochastic stream is pure in
            ``(seed, round, client)``, an interrupted-and-resumed faulty
            run replays bit-identically to an uninterrupted one.
        history_stream:
            When set, the history streams every round record to this JSONL
            file and keeps only the last ``history_keep_records`` records
            in RAM (see :meth:`RunHistory.stream_to`) — multi-thousand-
            round runs hold O(1) records resident while ``fingerprint()``
            and checkpoints stay identical to an unstreamed run. On resume
            the sink is rewritten from the restored history.
        history_keep_records:
            In-RAM tail length when streaming (≥ 1).
        """
        rounds = rounds if rounds is not None else self.cfg.rounds
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1; got {checkpoint_every}")
        ckpt_path: "pathlib.Path | None" = None
        if checkpoint_dir is not None:
            name = checkpoint_name or f"{self.name.lower()}-seed{self.cfg.seed}"
            ckpt_path = run_checkpoint_path(checkpoint_dir, name)

        history: "RunHistory | None" = None
        start_round = 0
        if resume_from is not None and resume_from is not False:
            ckpt = self._resolve_resume(resume_from, ckpt_path)
            if ckpt is not None:
                history, start_round = self.restore_checkpoint(ckpt)
                log.info(
                    "%s: resumed from checkpoint at round %d/%d",
                    self.name,
                    start_round,
                    rounds,
                )
        if history is None:
            history = RunHistory(
                algorithm=self.name,
                model=type(self.global_model).__name__,
                num_clients=self.fed.num_clients,
                sample_ratio=self.cfg.sample_ratio,
            )
        # Every run knob as configured, then what the runtime resolved
        # (an explicit ``runtime=`` may differ from the config).
        history.meta["runtime"] = {
            **{k.name: getattr(self.cfg, k.name) for k in knobs(FLConfig) if k.group},
            "executor": self.runtime.executor.name,
            "workers": self.runtime.executor.workers,
            "aggregation": self.runtime.aggregation.kind,
        }
        if history_stream is not None:
            history.stream_to(history_stream, keep_records=history_keep_records)
        # Executors are context managers: pooled workers are released even
        # when a round raises; pools re-arm lazily, so a later run() just
        # forks fresh ones.
        try:
            with self.runtime.executor:
                self._run_rounds(
                    rounds,
                    history,
                    start_round=start_round,
                    checkpoint_path=ckpt_path,
                    checkpoint_every=checkpoint_every,
                )
        finally:
            history.close_stream()
        return history

    @staticmethod
    def _resolve_resume(
        resume_from, default_path: "pathlib.Path | None"
    ) -> "RunCheckpoint | None":
        if isinstance(resume_from, RunCheckpoint):
            return resume_from
        if resume_from is True:
            if default_path is None:
                raise ValueError("resume_from=True requires checkpoint_dir")
            return load_run_checkpoint(default_path) if default_path.exists() else None
        return load_run_checkpoint(resume_from)

    def _run_rounds(
        self,
        rounds: int,
        history: RunHistory,
        start_round: int = 0,
        checkpoint_path: "pathlib.Path | None" = None,
        checkpoint_every: int = 1,
    ) -> None:
        for t in range(start_round, rounds):
            start = time.perf_counter()
            self.meter.begin_round(t)
            selected = self.select_clients(t)
            self._last_outcome = None
            self.round(t, selected)
            # A wholesale round() override records no outcome: everyone
            # selected took part and nothing failed.
            outcome = self._last_outcome or RoundOutcome(t, aggregated=selected)
            acc, loss = evaluate_model(
                self.evaluation_model(), self.fed.server_test, self.cfg.eval_batch_size
            )
            local_acc = None
            if self.cfg.eval_local:
                models = self.local_models_for_eval()
                if models is None:
                    models = [self.evaluation_model()] * self.fed.num_clients
                local_acc = average_local_accuracy(
                    models, self.fed.client_test, self.cfg.eval_batch_size
                )
            participated = len(outcome.aggregated)
            history.append(
                RoundRecord(
                    round_idx=t + 1,
                    accuracy=acc,
                    loss=loss,
                    cum_bytes=self.meter.total,
                    round_bytes=self.meter.round_bytes[t],
                    num_selected=participated,
                    local_accuracy=local_acc,
                    wall_time=time.perf_counter() - start,
                    num_sampled=len(selected),
                    num_failed=len(outcome.failures),
                    failures=dict(outcome.failures),
                    sim_time_s=outcome.sim_time_s,
                    staleness=dict(outcome.staleness),
                    buffer_len=outcome.buffer_len,
                )
            )
            log.info(
                "%s round %d/%d acc=%.4f loss=%.4f bytes=%.2fMB participants=%d/%d",
                self.name,
                t + 1,
                rounds,
                acc,
                loss,
                self.meter.total / 1e6,
                participated,
                len(selected),
            )
            # Snapshot on the cadence and always after the final round, so a
            # --resume of a completed run returns instantly.
            if checkpoint_path is not None and (
                (t + 1) % checkpoint_every == 0 or t + 1 == rounds
            ):
                save_run_checkpoint(self.make_checkpoint(history, t + 1), checkpoint_path)
