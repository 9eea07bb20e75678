"""Deterministic fault injection for the federated execution runtime.

Real edge fleets are unreliable: clients drop out mid-round (battery, churn),
resource-poor devices straggle, and uplinks lose messages. The round loop in
:mod:`repro.fl.algorithms.base` injects these behaviours from a
:class:`FaultPlan` whose every decision is drawn from a
``numpy.random.SeedSequence`` keyed on ``(seed, round, client)`` — never from
wall-clock state or execution order — so a faulty run is bit-reproducible and
identical under the serial and process-parallel executors.

This module deliberately imports nothing from :mod:`repro.fl` (it sits below
the algorithm layer), which keeps the ``repro.runtime`` ↔ ``repro.fl`` import
graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.adversary import ATTACK_KINDS, AttackSpec

__all__ = ["FaultSpec", "ClientFaults", "FaultPlan", "parse_fault_spec", "NO_FAULTS"]

# Stream key for fault draws; disjoint from repro.utils.rng's stream keys so
# fault schedules never correlate with sampling/init/shuffle randomness.
_FAULT_STREAM_KEY = 0x5EED_FA17


@dataclass(frozen=True)
class FaultSpec:
    """Failure-model parameters for one run.

    Attributes
    ----------
    dropout:
        Per-(round, client) probability that a sampled client never starts
        the round (crash/churn before the broadcast reaches it). Dropped
        clients consume no compute and no bandwidth.
    straggler_rate:
        Probability that a client runs slowed this round.
    straggler_slowdown:
        Maximum compute-time multiplier for stragglers; the actual factor is
        drawn uniformly from ``[1, straggler_slowdown]``.
    uplink_loss:
        Per-transmission probability that an upload is lost in transit.
        Lost messages are retried up to ``max_retries`` times with
        exponential backoff; a client whose every attempt is lost fails the
        round (its bandwidth is still consumed).
    max_retries:
        Retransmissions allowed after the first lost upload.
    backoff_s:
        Base virtual-clock backoff before the first retry; retry *i* waits
        ``backoff_s · 2^(i-1)``.
    attacks:
        Semantic (Byzantine) fault population — per-kind attacker fractions
        parsed from the same spec grammar (``signflip=0.2,scale=10@0.1``).
        Attacks poison *payloads*, not timing, so they do not count toward
        :attr:`is_null` and never materialize the virtual clock.
    """

    dropout: float = 0.0
    straggler_rate: float = 0.0
    straggler_slowdown: float = 4.0
    uplink_loss: float = 0.0
    max_retries: int = 2
    backoff_s: float = 0.5
    attacks: AttackSpec = field(default_factory=AttackSpec)

    def __post_init__(self) -> None:
        for name in ("dropout", "straggler_rate", "uplink_loss"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1); got {v}")
        if self.straggler_slowdown < 1.0:
            raise ValueError(
                f"straggler_slowdown must be >= 1; got {self.straggler_slowdown}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0; got {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0; got {self.backoff_s}")

    @property
    def is_null(self) -> bool:
        """True when no *infrastructure* fault can ever fire (the timing
        plan is a no-op). Attack roles live on :attr:`attacks` and are
        checked separately — they poison payloads, not timing."""
        return self.dropout == 0.0 and self.straggler_rate == 0.0 and self.uplink_loss == 0.0


# Spec-string keys accepted by parse_fault_spec → FaultSpec field.
_SPEC_KEYS = {
    "dropout": "dropout",
    "straggler": "straggler_rate",
    "slowdown": "straggler_slowdown",
    "loss": "uplink_loss",
    "retries": "max_retries",
    "backoff": "backoff_s",
}

# Attack keys share the grammar; these two carry an attack parameter in
# front of the fraction (``scale=λ@p``, ``noise=σ@p``).
_ATTACK_PARAMS = {"scale": "scale_lambda", "noise": "noise_std"}


def _parse_attack_value(key: str, value: str) -> "dict[str, float]":
    """``signflip=0.2`` → fraction only; ``scale=10@0.1`` → λ=10 plus the
    0.1 attacker fraction (same for ``noise=σ@p``)."""
    out: dict[str, float] = {}
    if "@" in value:
        if key not in _ATTACK_PARAMS:
            raise ValueError(
                f"fault key {key!r} takes a plain fraction, not "
                f"{value!r} (the param@fraction form is for "
                f"{sorted(_ATTACK_PARAMS)})"
            )
        param, _, frac = value.partition("@")
        out[_ATTACK_PARAMS[key]] = float(param)
        out[key] = float(frac)
    else:
        out[key] = float(value)
    return out


def parse_fault_spec(text: "str | FaultSpec | None") -> "FaultSpec | None":
    """Parse a CLI fault string like ``"dropout=0.3,loss=0.1,slowdown=4"``.

    Infrastructure keys: ``dropout``, ``straggler``, ``slowdown``, ``loss``,
    ``retries``, ``backoff``. Attack keys (Byzantine client fractions):
    ``signflip``, ``scale`` (``scale=λ@p`` sets the amplification λ and the
    fraction p), ``noise`` (``noise=σ@p``), ``labelflip``, ``freerider``,
    ``logitcorrupt``. The two vocabularies mix freely in one spec, e.g.
    ``"dropout=0.1,signflip=0.2,scale=10@0.1"``.

    Unknown keys raise a :class:`ValueError` naming every valid key — a
    typo must never silently weaken a fault model. Returns ``None`` for
    ``None``/empty input; passes an existing :class:`FaultSpec` through
    unchanged.
    """
    if text is None or isinstance(text, FaultSpec):
        return text
    text = text.strip()
    if not text:
        return None
    kwargs: dict[str, float | int] = {}
    attack_kwargs: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"malformed fault entry {item!r}; expected key=value")
        key, _, value = item.partition("=")
        key = key.strip().lower()
        if key in _SPEC_KEYS:
            fname = _SPEC_KEYS[key]
            kwargs[fname] = int(value) if fname == "max_retries" else float(value)
        elif key in ATTACK_KINDS:
            attack_kwargs.update(_parse_attack_value(key, value))
        else:
            raise ValueError(
                f"unknown fault key {key!r}; valid infrastructure keys: "
                f"{sorted(_SPEC_KEYS)}; valid attack keys: {sorted(ATTACK_KINDS)}"
            )
    if attack_kwargs:
        kwargs["attacks"] = AttackSpec(**attack_kwargs)
    return FaultSpec(**kwargs)


@dataclass(frozen=True)
class ClientFaults:
    """The fault outcome for one (round, client) pair.

    ``uplink_attempts`` is the number of transmissions the client's upload
    takes (1 = first try succeeds); ``None`` means every attempt within the
    retry budget was lost and the client fails the round.
    """

    dropped: bool = False
    slowdown: float = 1.0
    uplink_attempts: "int | None" = 1


NO_FAULTS = ClientFaults()


class FaultPlan:
    """Seeded, order-independent fault schedule.

    ``decide(round_idx, client_id)`` is a pure function of
    ``(seed, round_idx, client_id)``: calling it twice, in any order, from
    any process, yields the same :class:`ClientFaults` — the property the
    serial/parallel parity tests pin down.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(spec={self.spec}, seed={self.seed})"

    def _rng(self, round_idx: int, client_id: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed,
            spawn_key=(_FAULT_STREAM_KEY, int(round_idx), int(client_id)),
        )
        return np.random.default_rng(ss)

    def decide(self, round_idx: int, client_id: int) -> ClientFaults:
        """Draw this client's fate for one round."""
        spec = self.spec
        rng = self._rng(round_idx, client_id)
        # Draw every axis unconditionally so each decision consumes a fixed
        # number of variates: the dropout draw never shifts the straggler
        # draw, keeping per-axis schedules independently stable.
        u_drop = rng.random()
        u_strag = rng.random()
        u_slow = rng.random()
        dropped = u_drop < spec.dropout
        slowdown = 1.0
        if u_strag < spec.straggler_rate:
            slowdown = 1.0 + u_slow * (spec.straggler_slowdown - 1.0)
        attempts: "int | None" = 1
        if spec.uplink_loss > 0.0:
            attempts = None
            for i in range(spec.max_retries + 1):
                if rng.random() >= spec.uplink_loss:
                    attempts = i + 1
                    break
        return ClientFaults(dropped=dropped, slowdown=slowdown, uplink_attempts=attempts)

    def retry_delay_s(self, attempts: "int | None") -> float:
        """Total virtual backoff accrued before the (first successful or
        final failed) transmission."""
        if self.spec.backoff_s == 0.0:
            return 0.0
        lost = (self.spec.max_retries + 1 if attempts is None else attempts) - 1
        # 1 + 2 + ... + 2^(lost-1) backoff periods
        return self.spec.backoff_s * (2**lost - 1)
