"""FedKEMF — the paper's algorithm (Algorithms 1 + 2).

Per round:

1. the server broadcasts the global knowledge network θ_g to the sampled
   clients (only the tiny network ever crosses the wire);
2. each client mutually trains its persistent, resource-matched local model
   θ with its copy of θ_g (deep mutual learning, Alg. 1) and uploads the
   updated θ_g^k;
3. the server fuses the uploads: ensemble (max/mean/vote, Eq. 5) and distil
   into θ_g on the public set (Eq. 4), or plain weight averaging
   (``FLConfig.fusion``).

Local models never leave the device — they are both the privacy boundary and
the deployment artifact (Table 3 evaluates them on local test shards). Under
the execution runtime they are persistent on-device state: a (possibly
forked) worker trains its client's model and ships the weights back through
``ClientUpdate.local_state`` for the parent to write back.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.distill import DistillConfig
from repro.core.fusion import fuse_ensemble_distill
from repro.core.mutual import DeepMutualTrainer, train_stacked_mutual
from repro.data.federated import FederatedDataset
from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm, FLConfig, ModelFn
from repro.fl.state_store import ClientModelBank, client_model_fns
from repro.nn.batched import build_stacked
from repro.nn.module import Module
from repro.runtime.executors import ClientUpdate
from repro.runtime.runtime import FLRuntime

__all__ = ["FedKEMF"]


class FedKEMF(FLAlgorithm):
    """Knowledge extraction + multi-model fusion FL.

    Parameters
    ----------
    model_fn:
        Constructor for the *knowledge network* (the communicated model;
        ResNet-20 in the paper's CIFAR runs).
    fed:
        Federated data views (must include a public distillation set).
    config:
        Shared hyperparameters; FedKEMF additionally reads ``kl_weight``,
        ``ensemble``, ``fusion`` and the ``distill_*`` fields.
    local_model_fns:
        Per-client constructors for the resource-matched local models. A
        single callable is broadcast to all clients (homogeneous deployment,
        as in Figure 4); a list enables the multi-model setting of Table 3.
    runtime:
        Execution runtime override (executor/faults/deadline), forwarded to
        :class:`~repro.fl.algorithms.base.FLAlgorithm`.
    """

    name = "FedKEMF"

    def __init__(
        self,
        model_fn: ModelFn,
        fed: FederatedDataset,
        config: FLConfig,
        local_model_fns: "Sequence[ModelFn] | ModelFn | None" = None,
        runtime: "FLRuntime | None" = None,
    ) -> None:
        self._local_model_fns = client_model_fns(local_model_fns, model_fn, fed.num_clients)
        super().__init__(model_fn, fed, config, runtime=runtime)

    def setup(self) -> None:
        # Persistent local models — deployed on device, never communicated.
        # Behind a bank they are constructed on first touch (fresh init is
        # deterministic, so untouched clients carry no state at all) and,
        # with cfg.state_residency set, only that many stay live in RAM;
        # evicted models' weights park in a spill-capable state store.
        self.local_models = ClientModelBank(
            self._local_model_fns, resident_limit=self.cfg.state_residency
        )
        self._distill_config = DistillConfig.from_config(self.cfg)
        self.last_distill_loss: float | None = None

    def make_trainer(self, cid: int) -> DeepMutualTrainer:
        """Alg. 1 in place of plain local SGD: the base trainer's shard,
        loader seed and solver settings, plus the KL coupling. Everything
        else a client is — the lazy trainer bank, cohort retention, the
        ``labelflip`` clone of :meth:`_client_trainer` — is inherited."""
        return DeepMutualTrainer(
            kl_weight=self.cfg.kl_weight, **vars(super().make_trainer(cid))
        )

    def server_state(self) -> dict:
        # The heterogeneous local models are the on-device deployment
        # artifacts — without them a resumed run would restart every θ from
        # scratch and diverge from the uninterrupted trajectory. The base
        # dict additionally carries the buffered-regime update buffer.
        state = super().server_state()
        state.update(
            # Touched clients only ({cid: state_dict}): untouched models
            # are their deterministic fresh init, so a million-client
            # checkpoint stays O(touched).
            local_models=self.local_models.export_states(),
            last_distill_loss=self.last_distill_loss,
        )
        return state

    def load_server_state(self, state: dict) -> None:
        super().load_server_state(state)
        self.local_models.load_states(state["local_models"])
        self.last_distill_loss = state["last_distill_loss"]

    def client_work(self, round_idx: int, cid: int, payload: dict) -> ClientUpdate:
        # Client loads θ_g (tiny payload) into its working copy.
        self._scratch.load_state_dict(payload["state"])
        # Alg. 1: deep mutual learning of (θ, θ_g) on the local shard.
        stats = self._client_trainer(round_idx, cid).train(
            self.local_models[cid],
            self._scratch,
            epochs=self.cfg.local_epochs,
            round_idx=round_idx,
        )
        # Uplink: the updated knowledge network θ_g^k; the mutually-trained
        # local model θ stays on device (returned only for write-back).
        return ClientUpdate(
            client_id=cid,
            states={"state": self._scratch.state_dict()},
            weight=float(self.fed.client_size(cid)),
            steps=stats.steps,
            stats=stats,
            local_state=self.local_models[cid].state_dict(),
        )

    def client_work_batched(
        self, round_idx: int, tasks: "list[tuple[int, dict]]"
    ) -> "dict[int, ClientUpdate] | None":
        # Stacked deep mutual learning: both the knowledge networks and the
        # local models of a homogeneous cohort train as one program each.
        # The grouping rule also keys on the *local* architecture (the
        # multi-model setting of Table 3 mixes them); clients the stack
        # can't absorb run through the serial client_work unchanged.
        # Local models are NOT mutated here — trained weights return via
        # ``local_state`` and the parent writes them back through
        # apply_client_update, exactly like the serial/forked paths.
        results: "dict[int, ClientUpdate]" = {}
        for group in self._stackable_cohorts(round_idx, tasks, local=self.local_models.__getitem__):
            k = len(group)
            stacked_know = build_stacked(self._scratch, k)
            stacked_local = build_stacked(self.local_models[group[0][0]], k)
            if stacked_know is None or stacked_local is None:
                continue  # architecture not stackable: serial fallback
            stacked_know.load_client_states([p["state"] for _, p in group])
            stacked_local.load_client_states(
                [self.local_models[cid].state_dict(copy=False) for cid, _ in group]
            )
            stats = train_stacked_mutual(
                stacked_local,
                stacked_know,
                [self.trainers[cid] for cid, _ in group],
                self.cfg.local_epochs,
                round_idx,
            )
            for i, (cid, _payload) in enumerate(group):
                results[cid] = ClientUpdate(
                    client_id=cid,
                    states={"state": stacked_know.client_state(i)},
                    weight=float(self.fed.client_size(cid)),
                    steps=stats[i].steps,
                    stats=stats[i],
                    local_state=stacked_local.client_state(i),
                )
        return results or None

    def apply_client_update(self, update: ClientUpdate) -> None:
        # The device keeps its trained θ even if the server never sees θ_g^k.
        # Routed through the bank so a non-live client's weights park in
        # the state store instead of forcing a module construction.
        self.local_models.load_state(update.client_id, update.local_state)

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        client_states = [u.received["state"] for u in updates]
        weights = [u.weight for u in updates]
        if self.cfg.fusion == "weight-average":
            # Undefended this is fuse_weight_average verbatim; with a
            # defense, the robust policy fuses the knowledge networks.
            new_state = self._combine_states(
                client_states, weights, reference=self.global_model.state_dict(copy=False)
            )
            self.global_model.load_state_dict(new_state)
        else:
            # member_weights: the buffered regime's staleness discounts
            # (None under synchronous / all-fresh aggregation — keeping the
            # teacher bit-identical to the pre-buffer behaviour).
            # member_filter: the defense's confidence/outlier veto over the
            # ensemble teacher (a no-op returning member_weights unchanged
            # when no defense is configured).
            self.last_distill_loss = fuse_ensemble_distill(
                self.global_model,
                self._scratch,
                client_states,
                weights,
                public=self.fed.server_public,
                strategy=self.cfg.ensemble,
                distill_config=self._distill_config,
                init_from_average=self.cfg.distill_init_from_average,
                member_weights=self._staleness_discounts,
                member_filter=self._ensemble_member_filter,
            )

    def client_compute_model(self, cid: int) -> Module:
        # DML trains θ and θ_g together; the resource-matched local model
        # dominates the client's FLOPs and drives the virtual clock.
        return self.local_models[cid]

    def local_models_for_eval(self) -> "ClientModelBank":
        # The bank duck-types list[Module] (len / index / iterate), so the
        # Table 3 evaluation path is unchanged.
        return self.local_models


ALGORITHM_REGISTRY.add("fedkemf", FedKEMF)
