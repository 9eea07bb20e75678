"""FedMD (Li & Wang 2019) — heterogeneous FL via logit communication.

A related-work baseline the paper positions itself against. Clients may run
arbitrary architectures; each round they

1. download the server's *consensus scores* (average class logits on the
   shared public set) and **digest** — train to match the consensus on the
   public data;
2. **revisit** — train on their private shard;
3. upload their own logits on the public set.

Only (N_public × classes) floats cross the wire — even less than FedKEMF's
knowledge network — but there is no global *model*: the server's artifact
is the consensus table, and system accuracy is the committee of client
models (evaluated here through :class:`repro.core.ensemble.EnsembleModule`).

Client models are persistent on-device state: the trained weights return to
the parent through ``ClientUpdate.local_state`` and are written back in
:meth:`FedMD.apply_client_update`, so the digest+revisit pass can run in a
forked worker without losing the model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.core.distill import DistillConfig, distill_from_teacher_logits
from repro.core.ensemble import EnsembleModule, member_logits, weighted_ensemble_logits
from repro.data.federated import FederatedDataset
from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm, FLConfig, ModelFn
from repro.fl.state_store import ClientModelBank, client_model_fns
from repro.nn.module import Module
from repro.runtime.executors import ClientUpdate
from repro.runtime.runtime import FLRuntime

__all__ = ["FedMD"]


class FedMD(FLAlgorithm):
    """Federated learning via model distillation on a public dataset.

    Parameters mirror :class:`repro.core.fedkemf.FedKEMF`: ``model_fn`` is
    the default client architecture and ``local_model_fns`` optionally gives
    one builder per client for heterogeneous deployments.
    """

    name = "FedMD"

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
        # Persistent client models behind a lazy bank: constructed on first
        # touch, and with cfg.state_residency set only that many stay live
        # (evicted weights park in a spill-capable store). Committee
        # evaluation still materializes every member, so FedMD's eval path
        # remains O(num_clients) — the bank bounds *training* residency.
        self.client_models = ClientModelBank(
            self._local_model_fns, resident_limit=self.cfg.state_residency
        )
        self._digest_config = DistillConfig.from_config(self.cfg)
        x, _ = self.fed.server_public.arrays()
        self._public_x = x
        num_classes = self.fed.num_classes
        # consensus starts uninformative (zeros = uniform distribution)
        self.consensus = np.zeros((len(x), num_classes), dtype=np.float32)

    def server_state(self) -> dict:
        state = super().server_state()  # buffered-regime buffer, when active
        state.update(
            # Touched clients only ({cid: state_dict}); untouched models
            # are their deterministic fresh init.
            client_models=self.client_models.export_states(),
            consensus=self.consensus.copy(),
        )
        return state

    def load_server_state(self, state: dict) -> None:
        super().load_server_state(state)
        self.client_models.load_states(state["client_models"])
        self.consensus = np.asarray(state["consensus"], dtype=np.float32).copy()

    def client_payload(self, round_idx: int, cid: int) -> dict:
        # consensus scores are the only downlink payload
        consensus = self.channel.download(cid, OrderedDict(scores=self.consensus))
        return {"consensus": consensus["scores"]}

    def client_work(self, round_idx: int, cid: int, payload: dict) -> ClientUpdate:
        model = self.client_models[cid]
        if round_idx > 0:  # round 0 has no information to digest
            distill_from_teacher_logits(
                model, payload["consensus"], self._public_x, self._digest_config
            )
        # revisit: a few epochs on the private shard
        stats = self._client_trainer(round_idx, cid).train(
            model, self.cfg.local_epochs, round_idx
        )
        # upload own public-set scores
        scores = member_logits(model, self._public_x, self._digest_config.batch_size)
        return ClientUpdate(
            client_id=cid,
            states={"scores": OrderedDict(scores=scores.astype(np.float32))},
            weight=float(self.fed.client_size(cid)),
            steps=stats.steps,
            stats=stats,
            local_state=model.state_dict(),
        )

    def apply_client_update(self, update: ClientUpdate) -> None:
        self.client_models.load_state(update.client_id, update.local_state)

    def _consensus_from(self, uploads, base_weights) -> np.ndarray:
        """Fuse client logit tables into the consensus. The (M, N, C)
        stack runs through the defense's member filter, so corrupted
        tables are vetoed before they shape the consensus; ``None``
        resulting weights keep the unweighted mean path bitwise."""
        stacked = np.stack(uploads)
        weights = self._ensemble_member_filter(stacked, base_weights)
        return weighted_ensemble_logits(stacked, "mean", weights)

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        uploads = [u.received["scores"]["scores"] for u in updates]
        self.consensus = self._consensus_from(uploads, None)

    def aggregate_buffered(self, round_idx: int, merges) -> None:
        """Staleness-weighted consensus: a stale client's logit table
        counts for less in the average (``np.average`` with the discount
        weights). All-fresh merges keep the unweighted ``np.mean`` path —
        the two are not bitwise interchangeable."""
        if all(m.discount == 1.0 for m in merges):
            self.aggregate(round_idx, [m.update for m in merges])
            return
        uploads = [m.update.received["scores"]["scores"] for m in merges]
        discounts = [m.discount for m in merges]
        self.consensus = self._consensus_from(uploads, discounts)

    def client_compute_model(self, cid: int) -> Module:
        return self.client_models[cid]

    def evaluation_model(self) -> Module:
        """System accuracy = the committee of all client models."""
        return EnsembleModule(list(self.client_models), strategy="mean")

    def local_models_for_eval(self) -> "ClientModelBank":
        return self.client_models


ALGORITHM_REGISTRY.add("fedmd", FedMD)
