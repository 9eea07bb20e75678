"""SCAFFOLD (Karimireddy et al. 2020) — stochastic controlled averaging.

Maintains a server control variate ``c`` and one client control ``cᵢ`` per
client. Local SGD steps use the corrected gradient ``g + c − cᵢ``, removing
client drift under non-IID data. After τ local steps with learning rate η:

    cᵢ⁺ = cᵢ − c + (x − yᵢ)/(τ·η)        (option II of the paper)
    uplink: (yᵢ, Δcᵢ);  server: x ← x + lr_g·mean(Δyᵢ), c ← c + (|S|/N)·mean(Δcᵢ)

Both directions genuinely carry two model-sized payloads (x with c down,
yᵢ with Δcᵢ up), matching the paper's 2× Round/Client accounting.

The client control ``cᵢ`` is device-local state: it rides into
:meth:`client_work` inside the (unmetered) payload and its successor comes
back through ``ClientUpdate.extra`` for the parent to write back — workers
stay stateless under the parallel executor.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm
from repro.fl.state_store import ClientStateStore
from repro.fl.trainer import LocalTrainer
from repro.nn.module import Module
from repro.runtime.executors import ClientUpdate

__all__ = ["Scaffold"]


def _zeros_like_params(model: Module) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict(
        (name, np.zeros_like(p.data, dtype=np.float64)) for name, p in model.named_parameters()
    )


class Scaffold(FLAlgorithm):
    """Control-variate corrected FL."""

    name = "SCAFFOLD"

    def setup(self) -> None:
        self.server_control = _zeros_like_params(self.global_model)
        # Controls are touched-clients-only and live behind a spill-capable
        # store: with cfg.state_residency set, only that many stay in RAM
        # and the LRU overflow is pickled to scratch disk — values
        # round-trip bit-exactly, so residency never shapes the trajectory.
        self.client_controls = ClientStateStore(
            resident_limit=self.cfg.state_residency
        )

    def make_trainer(self, cid: int) -> LocalTrainer:
        # The SCAFFOLD analysis assumes plain SGD local steps; heavy-ball
        # momentum compounds the control correction and diverges, so the
        # local solver runs momentum-free regardless of the shared config.
        trainer = super().make_trainer(cid)
        trainer.momentum = 0.0
        return trainer

    def server_state(self) -> dict:
        state = super().server_state()  # buffered-regime buffer, when active
        state.update(
            server_control=OrderedDict(
                (k, v.copy()) for k, v in self.server_control.items()
            ),
            client_controls={
                cid: OrderedDict((k, v.copy()) for k, v in c.items())
                for cid, c in self.client_controls.export().items()
            },
        )
        return state

    def load_server_state(self, state: dict) -> None:
        super().load_server_state(state)
        self.server_control = OrderedDict(
            (k, v.copy()) for k, v in state["server_control"].items()
        )
        self.client_controls.load(
            {
                int(cid): OrderedDict((k, v.copy()) for k, v in c.items())
                for cid, c in state["client_controls"].items()
            }
        )

    def _control_for(self, cid: int) -> OrderedDict:
        if cid not in self.client_controls:
            self.client_controls[cid] = _zeros_like_params(self.global_model)
        return self.client_controls[cid]

    def client_payload(self, round_idx: int, cid: int) -> dict:
        # downlink: model weights AND the server control (two payloads,
        # both fp32 on the wire); the client's own control is device-local
        # and crosses no wire.
        state = self.channel.download(cid, self._downlink_state())
        c_server = self.channel.download(
            cid,
            OrderedDict((k, v.astype(np.float32)) for k, v in self.server_control.items()),
        )
        # The client control is handed out by value: the payload crosses an
        # executor boundary, and under the serial executor a live reference
        # would let worker-side arithmetic alias the server's copy of cᵢ
        # (reprolint RPL703). Values are copied bit-exactly, so the control
        # maths downstream is unchanged.
        client_control = OrderedDict(
            (k, v.copy()) for k, v in self._control_for(cid).items()
        )
        return {"state": state, "control": c_server, "client_control": client_control}

    def client_work(self, round_idx: int, cid: int, payload: dict) -> ClientUpdate:
        global_state = self.global_model.state_dict(copy=False)  # round-start anchor x
        param_names = [name for name, _ in self.global_model.named_parameters()]
        self._scratch.load_state_dict(payload["state"])
        c_server = payload["control"]
        c_i = payload["client_control"]
        correction = {
            name: (c_server[name] - c_i[name]).astype(np.float32) for name in param_names
        }

        def control_hook(model: Module) -> None:
            for name, p in model.named_parameters():
                if p.grad is not None:
                    p.grad += correction[name]

        trainer = self._client_trainer(round_idx, cid)
        stats = trainer.train(
            self._scratch, self.cfg.local_epochs, round_idx, grad_hook=control_hook
        )
        tau = max(stats.steps, 1)
        eta = trainer.lr
        y_state = self._scratch.state_dict()

        new_c = OrderedDict()
        delta_c = OrderedDict()
        for name in param_names:
            drift = (
                np.asarray(global_state[name], dtype=np.float64) - y_state[name]
            ) / (tau * eta)
            new_c[name] = c_i[name] - c_server[name] + drift
            delta_c[name] = new_c[name] - c_i[name]

        # uplink: weights AND control delta (two payloads, fp32 wire); the
        # updated client control goes back to the parent for write-back.
        return ClientUpdate(
            client_id=cid,
            states={
                "state": y_state,
                "delta_control": OrderedDict(
                    (k, v.astype(np.float32)) for k, v in delta_c.items()
                ),
            },
            weight=float(self.fed.client_size(cid)),
            steps=stats.steps,
            stats=stats,
            extra={"new_control": new_c},
        )

    def apply_client_update(self, update: ClientUpdate) -> None:
        # The client updated its control locally whether or not the server
        # ends up accepting (or even receiving) its upload.
        self.client_controls[update.client_id] = update.extra["new_control"]

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        global_state = self.global_model.state_dict()
        param_names = [name for name, _ in self.global_model.named_parameters()]
        uploaded_states = [u.received["state"] for u in updates]
        delta_controls = [u.received["delta_control"] for u in updates]
        weights = [u.weight for u in updates]

        # Server model: x ← x + lr_g · weighted-mean(yᵢ − x); buffers averaged.
        # Robustly fused when a defense is configured (anchored on x).
        avg_y = self._combine_states(uploaded_states, weights, reference=global_state)
        new_state = OrderedDict()
        for k, v in avg_y.items():
            x_k = np.asarray(global_state[k], dtype=np.float64)
            new_state[k] = (x_k + self.cfg.server_lr * (v - x_k)).astype(
                np.asarray(global_state[k]).dtype
            )
        self.global_model.load_state_dict(new_state)

        # Server control: c ← c + (|S|/N) · mean(Δcᵢ). The control deltas
        # are their own attack surface, so the defense fuses them too
        # (unanchored — they live in delta space, not weight space).
        robust_dc = (
            self.defense.combine(delta_controls, None) if self.defense is not None else None
        )
        frac = len(updates) / self.fed.num_clients
        for name in param_names:
            mean_dc = (
                np.asarray(robust_dc[name], dtype=np.float64)
                if robust_dc is not None
                else np.mean([dc[name] for dc in delta_controls], axis=0)
            )
            self.server_control[name] += frac * mean_dc


ALGORITHM_REGISTRY.add("scaffold", Scaffold)
