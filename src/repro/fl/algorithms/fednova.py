"""FedNova (Wang et al. 2020) — normalized averaging of local updates.

Clients may take different numbers of local steps τᵢ (heterogeneous shard
sizes); plain FedAvg then biases toward fast clients ("objective
inconsistency"). FedNova uploads the *normalized* update dᵢ = (x − yᵢ)/τᵢ
and applies x ← x − τ_eff · Σ pᵢ dᵢ with τ_eff = Σ pᵢ τᵢ.

Communication accounting: clients upload both their weights (for buffer
aggregation) and the normalized-gradient state, and the paper's tables
charge the download side double as well ("[FedNova and SCAFFOLD] cost
double average communication cost compared to FedAvg as a result of
sharing the extra gradient information") — we follow that accounting via a
2× download multiplier so Table 1/2's Round/Client column reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm
from repro.nn.serialization import FlatState
from repro.runtime.executors import ClientUpdate

__all__ = ["FedNova"]


class FedNova(FLAlgorithm):
    """Normalized-averaging FL."""

    name = "FedNova"

    def client_payload(self, round_idx: int, cid: int) -> dict:
        state = self.channel.download(cid, self._downlink_state(), payload_multiplier=2.0)
        return {"state": state}

    def client_work(self, round_idx: int, cid: int, payload: dict) -> ClientUpdate:
        self._scratch.load_state_dict(payload["state"])
        trainer = self._client_trainer(round_idx, cid)
        stats = trainer.train(self._scratch, self.cfg.local_epochs, round_idx)
        tau = max(stats.steps, 1)
        y_state = self._scratch.state_dict()
        # normalized update over *parameters* (buffers are averaged) against
        # the round-start anchor x, in float64; cast to fp32 on the wire like
        # every other payload
        params = self._param_layout(np.float64)
        x = FlatState.of(self.global_model.state_dict(copy=False), params).buffers[0]
        y = FlatState.of(y_state, params).buffers[0]
        d = FlatState(self._param_layout(np.float32), [((x - y) / tau).astype(np.float32)])
        # Two real payloads cross the uplink: weights + normalized grads.
        return ClientUpdate(
            client_id=cid,
            states={"state": y_state, "delta": d},
            weight=float(self.fed.client_size(cid)),
            steps=stats.steps,
            stats=stats,
            extra={"tau": float(tau)},
        )

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        global_state = self.global_model.state_dict(copy=False)
        params = self._param_layout(np.float64)

        weights = [u.weight for u in updates]
        taus = [u.extra["tau"] for u in updates]
        deltas = [u.received["delta"] for u in updates]
        uploaded_states = [u.received["state"] for u in updates]

        total_w = sum(weights)
        p = [w / total_w for w in weights]
        tau_eff = sum(pi * ti for pi, ti in zip(p, taus))

        # buffers (and a base); robustly fused when a defense is configured
        new_state = self._combine_states(uploaded_states, weights, reference=global_state)
        # The normalized gradients live in their own delta space, so the
        # defense fuses them unanchored; undefended keeps the exact p-sum
        # (in the deltas' float32).
        if self.defense is not None:
            combined = FlatState.of(self.defense.combine(deltas, weights), params).buffers[0]
        else:
            wire = self._param_layout(np.float32)
            combined = sum(pi * FlatState.of(d, wire).buffers[0] for pi, d in zip(p, deltas))
        x = FlatState.of(global_state, params).buffers[0]
        self.global_model.load_state_dict(new_state)
        self.global_model.load_state_dict(
            FlatState(params, [x - self.cfg.server_lr * tau_eff * combined]), strict=False
        )


ALGORITHM_REGISTRY.add("fednova", FedNova)
