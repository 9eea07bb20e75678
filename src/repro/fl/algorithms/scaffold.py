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

import copy

import numpy as np

from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm
from repro.fl.state_store import ClientStateStore
from repro.fl.trainer import LocalTrainer
from repro.nn.module import Module
from repro.nn.serialization import FlatState
from repro.runtime.executors import ClientUpdate

__all__ = ["Scaffold"]


class Scaffold(FLAlgorithm):
    """Control-variate corrected FL."""

    name = "SCAFFOLD"

    def setup(self) -> None:
        # Every control is a float64 buffer in the parameters' layout; the
        # wire carries controls and control deltas as float32.
        params = self._param_layout(np.float64)
        self.server_control = FlatState(params, [np.zeros(params.buffer_sizes[0])])
        # Controls are touched-clients-only and live behind a spill-capable
        # store: with cfg.state_residency set, only that many stay in RAM
        # and the LRU overflow is pickled to scratch disk — values
        # round-trip bit-exactly, so residency never shapes the trajectory.
        # A spilled or checkpointed control comes back as a plain mapping
        # and is flattened again where it is read.
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
        # by value: a FlatState deep-copies to its plain OrderedDict
        state.update(
            server_control=copy.deepcopy(self.server_control),
            client_controls=copy.deepcopy(self.client_controls.export()),
        )
        return state

    def load_server_state(self, state: dict) -> None:
        super().load_server_state(state)
        params = self._param_layout(np.float64)
        self.server_control = FlatState.of(state["server_control"], params)
        self.client_controls.load(
            {int(cid): FlatState.of(c, params) for cid, c in state["client_controls"].items()}
        )

    def client_payload(self, round_idx: int, cid: int) -> dict:
        # downlink: model weights AND the server control (two payloads,
        # both fp32 on the wire); the client's own control is device-local
        # and crosses no wire.
        state = self.channel.download(cid, self._downlink_state())
        c_server = self.channel.download(
            cid,
            FlatState(
                self._param_layout(np.float32), [self.server_control.buffers[0].astype(np.float32)]
            ),
        )
        if cid not in self.client_controls:
            self.client_controls[cid] = FlatState(
                self.server_control.layout, [np.zeros_like(self.server_control.buffers[0])]
            )
        # The client control is handed out by value: the payload crosses an
        # executor boundary, and under the serial executor a live reference
        # would let worker-side arithmetic alias the server's copy of cᵢ.
        # Today's client_work never writes cᵢ in place, so the copy guards
        # the next edit of it. Values are copied bit-exactly, so the
        # control maths downstream is unchanged.
        client_control = copy.deepcopy(self.client_controls[cid])
        return {"state": state, "control": c_server, "client_control": client_control}

    def client_work(self, round_idx: int, cid: int, payload: dict) -> ClientUpdate:
        params = self._param_layout(np.float64)
        wire = self._param_layout(np.float32)
        # round-start anchor x
        x = FlatState.of(self.global_model.state_dict(copy=False), params).buffers[0]
        self._scratch.load_state_dict(payload["state"])
        c_server = FlatState.of(payload["control"], params).buffers[0]
        c_i = FlatState.of(payload["client_control"], params).buffers[0]
        correction = FlatState(wire, [(c_server - c_i).astype(np.float32)])

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

        y = FlatState.of(y_state, params).buffers[0]
        new_c = c_i - c_server + (x - y) / (tau * eta)
        delta_c = new_c - c_i

        # uplink: weights AND control delta (two payloads, fp32 wire); the
        # updated client control goes back to the parent for write-back.
        return ClientUpdate(
            client_id=cid,
            states={
                "state": y_state,
                "delta_control": FlatState(wire, [delta_c.astype(np.float32)]),
            },
            weight=float(self.fed.client_size(cid)),
            steps=stats.steps,
            stats=stats,
            extra={"new_control": FlatState(params, [new_c])},
        )

    def apply_client_update(self, update: ClientUpdate) -> None:
        # The client updated its control locally whether or not the server
        # ends up accepting (or even receiving) its upload.
        self.client_controls[update.client_id] = update.extra["new_control"]

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        global_state = FlatState.of(self.global_model.state_dict(copy=False))
        uploaded_states = [u.received["state"] for u in updates]
        delta_controls = [u.received["delta_control"] for u in updates]
        weights = [u.weight for u in updates]

        # Server model: x ← x + lr_g · weighted-mean(yᵢ − x), buffers too.
        # Robustly fused when a defense is configured (anchored on x).
        avg_y = FlatState.of(
            self._combine_states(uploaded_states, weights, reference=global_state),
            global_state.layout,
        )
        new_buffers = []
        for g, v in zip(global_state.buffers, avg_y.buffers):
            x = g.astype(np.float64)
            new_buffers.append((x + self.cfg.server_lr * (v - x)).astype(g.dtype))
        self.global_model.load_state_dict(FlatState(global_state.layout, new_buffers))

        # Server control: c ← c + (|S|/N) · mean(Δcᵢ). The control deltas
        # are their own attack surface, so the defense fuses them too
        # (unanchored — they live in delta space, not weight space).
        if self.defense is not None:
            mean_dc = FlatState.of(
                self.defense.combine(delta_controls, None), self.server_control.layout
            ).buffers[0]
        else:
            wire = self._param_layout(np.float32)
            mean_dc = np.mean([FlatState.of(dc, wire).buffers[0] for dc in delta_controls], axis=0)
        frac = len(updates) / self.fed.num_clients
        c = self.server_control
        self.server_control = FlatState(c.layout, [c.buffers[0] + frac * mean_dc])


ALGORITHM_REGISTRY.add("scaffold", Scaffold)
