"""FedOpt family (Reddi et al. 2021): adaptive *server* optimizers.

FedAvg treats the weighted average of client updates as the new model;
FedOpt instead treats the average client delta Δ = avg(yᵢ) − x as a
pseudo-gradient and feeds it to a server-side optimizer:

- **FedAvgM** — server momentum: v ← β·v + Δ;  x ← x + η_s·v
- **FedAdam** — server Adam over Δ (bias-corrected moments)

Both communicate exactly like FedAvg (model weights up/down), so they slot
into the same communication accounting; they are the standard stabilized
baselines a practitioner would try before distillation methods.
BatchNorm buffers are averaged directly (they are statistics, not
gradient-like quantities).

The client pass is the framework default (plain local SGD via the execution
runtime); only the server step differs, so each variant implements
:meth:`_server_step` and shares the :meth:`aggregate` plumbing. Δ, the
moments and the step are float64 buffers in the parameters' layout
(:meth:`FLAlgorithm._param_layout`); a checkpoint carries each moment as
the plain ``OrderedDict`` a :class:`FlatState` deep-copies to.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm
from repro.nn.serialization import FlatState
from repro.runtime.executors import ClientUpdate

__all__ = ["FedAvgM", "FedAdam"]


class _FedOptBase(FLAlgorithm):
    """Shared server plumbing: form Δ from averaged uploads, apply a step."""

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        global_state = self.global_model.state_dict(copy=False)
        states = [u.received["state"] for u in updates]
        weights = [u.weight for u in updates]
        # Robustly fused client average (plain average_states undefended);
        # the server optimizer then steps on the fused pseudo-gradient.
        avg = self._combine_states(states, weights, reference=global_state)
        params = self._param_layout(np.float64)
        x = FlatState.of(global_state, params).buffers[0]
        step = self._server_step(FlatState(params, [FlatState.of(avg, params).buffers[0] - x]))
        self.global_model.load_state_dict(avg)  # buffers: plain average
        self.global_model.load_state_dict(FlatState(params, [x + step]), strict=False)

    def _moment(self, state) -> "FlatState | None":
        """A checkpointed moment, flattened by value into the parameters'
        float64 layout (``None`` before the first step)."""
        return None if state is None else FlatState.of(state, self._param_layout(np.float64))

    def _server_step(self, delta: FlatState) -> np.ndarray:
        raise NotImplementedError


class FedAvgM(_FedOptBase):
    """Server momentum over the average client delta."""

    name = "FedAvgM"
    beta = 0.9

    def setup(self) -> None:
        self._velocity: "FlatState | None" = None

    def server_state(self) -> dict:
        state = super().server_state()  # buffered-regime buffer, when active
        state["velocity"] = copy.deepcopy(self._velocity)
        return state

    def load_server_state(self, state: dict) -> None:
        super().load_server_state(state)
        self._velocity = self._moment(state["velocity"])

    def _server_step(self, delta: FlatState) -> np.ndarray:
        d = delta.buffers[0]
        v = np.zeros_like(d) if self._velocity is None else self._velocity.buffers[0]
        self._velocity = FlatState(delta.layout, [self.beta * v + d])
        return self.cfg.server_lr * self._velocity.buffers[0]


class FedAdam(_FedOptBase):
    """Server Adam over the average client delta (τ-adaptivity of FedOpt)."""

    name = "FedAdam"
    beta1 = 0.9
    beta2 = 0.99
    eps = 1e-4  # the FedOpt paper's recommended large epsilon

    def setup(self) -> None:
        self._m: "FlatState | None" = None
        self._v: "FlatState | None" = None
        self._t = 0

    def server_state(self) -> dict:
        state = super().server_state()  # buffered-regime buffer, when active
        state.update(m=copy.deepcopy(self._m), v=copy.deepcopy(self._v), t=self._t)
        return state

    def load_server_state(self, state: dict) -> None:
        super().load_server_state(state)
        self._m = self._moment(state["m"])
        self._v = self._moment(state["v"])
        self._t = int(state["t"])

    def _server_step(self, delta: FlatState) -> np.ndarray:
        d = delta.buffers[0]
        m, v = (
            (np.zeros_like(d), np.zeros_like(d))
            if self._m is None
            else (self._m.buffers[0], self._v.buffers[0])
        )
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        m = self.beta1 * m + (1 - self.beta1) * d
        v = self.beta2 * v + (1 - self.beta2) * (d * d)
        self._m, self._v = FlatState(delta.layout, [m]), FlatState(delta.layout, [v])
        return self.cfg.server_lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


ALGORITHM_REGISTRY.add("fedavgm", FedAvgM)
ALGORITHM_REGISTRY.add("fedadam", FedAdam)
