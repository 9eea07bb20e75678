"""Deterministic Byzantine adversary for the federated execution runtime.

Infrastructure faults (:mod:`repro.runtime.faults`) model an unreliable
fleet; this module models a *hostile* one. An :class:`AdversaryPlan` assigns
each (round, client) pair an attack role — or none — purely from
``(seed, round, client)`` via a dedicated ``numpy.random.SeedSequence``
stream, so an attacked run is bit-reproducible and identical under the
serial, parallel, persistent and batched executors.

Attack roles (:data:`ATTACK_KINDS`):

- ``signflip`` — upload the reflection of the honest update through the
  round-start global state (``2·ref − x``: the classic sign-flipping /
  model-negation attack);
- ``scale`` — amplify the honest delta by ``λ`` (``ref + λ·(x − ref)``);
- ``noise`` — add seeded Gaussian noise of std ``σ`` to every float tensor;
- ``labelflip`` — train honestly but on flipped labels ``y → C−1−y``
  (handled at training time by the algorithm layer, not here);
- ``freerider`` — upload the round-start state verbatim (zero delta: claims
  participation credit while contributing nothing);
- ``logitcorrupt`` — deterministically permute every float tensor's values
  (a knowledge network whose logits are garbage but whose statistics look
  plausible — the attack ensemble distillation must filter out).

Payload transforms run **parent-side** (after the executor returns, before
the channel upload), which makes executor parity trivial for everything but
``labelflip``; that one is pure in ``(seed, round, client)`` so every
backend computes the same role.

This module deliberately imports nothing from :mod:`repro.fl` and nothing
from its sibling :mod:`repro.runtime.faults` (which imports *us* for the
``--faults`` grammar), keeping the import graph acyclic.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, MutableMapping

import numpy as np

from repro.data.dataset import ArrayDataset

__all__ = [
    "ATTACK_KINDS",
    "LABELFLIP",
    "AttackSpec",
    "AdversaryPlan",
    "labelflip_clone",
    "poison_states",
]

# Stream key for attack-role and attack-noise draws; disjoint from the fault
# stream (0x5EED_FA17) and repro.utils.rng's keys, so attack schedules never
# correlate with fault schedules or training randomness.
_ATTACK_STREAM_KEY = 0x0BAD_0A77

# Role order is load-bearing: roles partition the unit interval in this
# order, so reordering the tuple would reassign roles under a fixed seed.
ATTACK_KINDS = (
    "signflip",
    "scale",
    "noise",
    "labelflip",
    "freerider",
    "logitcorrupt",
)

LABELFLIP = "labelflip"


@dataclass(frozen=True)
class AttackSpec:
    """Per-round attacker population, as a fraction per attack kind.

    Each fraction is the probability that a given (round, client) pair
    plays that role; the fractions must sum to at most 1 (the remainder is
    the honest population). ``scale_lambda`` and ``noise_std`` parameterize
    their attacks and come from the ``scale=λ@p`` / ``noise=σ@p`` spec
    forms.
    """

    signflip: float = 0.0
    scale: float = 0.0
    noise: float = 0.0
    labelflip: float = 0.0
    freerider: float = 0.0
    logitcorrupt: float = 0.0
    scale_lambda: float = 10.0
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        for kind in ATTACK_KINDS:
            v = getattr(self, kind)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{kind} fraction must be in [0, 1]; got {v}")
        total = sum(getattr(self, kind) for kind in ATTACK_KINDS)
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"attack fractions must sum to <= 1; got {total:.4f}"
            )
        if not np.isfinite(self.scale_lambda):
            raise ValueError(f"scale_lambda must be finite; got {self.scale_lambda}")
        if not self.noise_std > 0.0:
            raise ValueError(f"noise_std must be positive; got {self.noise_std}")

    @property
    def is_null(self) -> bool:
        """True when no client can ever be assigned an attack role."""
        return all(getattr(self, kind) == 0.0 for kind in ATTACK_KINDS)

    def fractions(self) -> "tuple[tuple[str, float], ...]":
        """(kind, fraction) pairs in canonical role order."""
        return tuple((kind, getattr(self, kind)) for kind in ATTACK_KINDS)


class AdversaryPlan:
    """Seeded, order-independent attack schedule.

    ``role(round_idx, client_id)`` is a pure function of
    ``(seed, round_idx, client_id)``: calling it twice, in any order, from
    any process, yields the same role — the property the executor-parity
    tests under an active attack plan pin down.
    """

    def __init__(self, spec: AttackSpec, seed: int = 0) -> None:
        if not isinstance(spec, AttackSpec):
            raise TypeError(f"expected AttackSpec, got {type(spec).__name__}")
        self.spec = spec
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AdversaryPlan(spec={self.spec}, seed={self.seed})"

    def _rng(self, round_idx: int, client_id: int, lane: int) -> np.random.Generator:
        # lane 0: the single role draw; lane 1: per-attack variates (noise,
        # permutations). Separate lanes keep the role assignment stable no
        # matter how many variates an attack consumes.
        ss = np.random.SeedSequence(
            entropy=self.seed,
            spawn_key=(_ATTACK_STREAM_KEY, int(round_idx), int(client_id), lane),
        )
        return np.random.default_rng(ss)

    def role(self, round_idx: int, client_id: int) -> "str | None":
        """This client's attack role for one round (``None`` = honest)."""
        if self.spec.is_null:
            return None
        u = self._rng(round_idx, client_id, lane=0).random()
        edge = 0.0
        for kind, frac in self.spec.fractions():
            edge += frac
            if u < edge:
                return kind
        return None

    def attack_rng(self, round_idx: int, client_id: int) -> np.random.Generator:
        """Generator for an attack's own variates (noise draws, permutations),
        independent of the role draw."""
        return self._rng(round_idx, client_id, lane=1)


# ---------------------------------------------------------------------- #
# payload transforms
# ---------------------------------------------------------------------- #


def _matches(reference: "Mapping[str, np.ndarray] | None", state: Mapping) -> bool:
    """Whether ``reference`` is a usable anchor for ``state`` (same keys and
    shapes — the uploaded-weights payload, as opposed to delta/logit ones)."""
    if reference is None:
        return False
    if set(reference.keys()) != set(state.keys()):
        return False
    return all(
        np.asarray(reference[k]).shape == np.asarray(state[k]).shape for k in state
    )


def _poison_array(
    role: str,
    x: np.ndarray,
    ref: "np.ndarray | None",
    rng: np.random.Generator,
    spec: AttackSpec,
) -> np.ndarray:
    """One tensor's poisoned value. Non-float tensors pass through untouched
    (integer metadata is not a useful attack surface and corrupting it would
    test the codec, not the aggregator)."""
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        return x
    xf = x.astype(np.float64)
    rf = None if ref is None else np.asarray(ref, dtype=np.float64)
    if role == "signflip":
        out = 2.0 * rf - xf if rf is not None else -xf
    elif role == "scale":
        lam = spec.scale_lambda
        out = rf + lam * (xf - rf) if rf is not None else lam * xf
    elif role == "noise":
        out = xf + rng.normal(0.0, spec.noise_std, size=xf.shape)
    elif role == "freerider":
        out = rf if rf is not None else np.zeros_like(xf)
    elif role == "logitcorrupt":
        out = xf.ravel()[rng.permutation(xf.size)].reshape(xf.shape)
    else:  # pragma: no cover - guarded by poison_states
        raise ValueError(f"unknown payload attack role {role!r}")
    return out.astype(x.dtype)


def labelflip_clone(trainer, num_classes: int):
    """A copy of a client trainer over the flipped-label view ``y → C−1−y``
    of its shard. Hyperparameters and *seed* are the trainer's own, so the
    batch order is the honest one and only the labels differ. Pure — the
    trainer and its dataset are untouched — so client work may call it in
    a forked worker; the clone costs one pass over the shard (a label flip,
    plus the feature gather when the shard is a ``Subset`` view)."""
    x, y = trainer.dataset.arrays()
    clone = copy.copy(trainer)
    clone.dataset = ArrayDataset(x, (num_classes - 1) - y)
    return clone


def poison_states(
    role: str,
    states: "MutableMapping[str, Mapping[str, np.ndarray]]",
    reference: "Mapping[str, np.ndarray] | None",
    plan: AdversaryPlan,
    round_idx: int,
    client_id: int,
) -> None:
    """Apply ``role``'s payload transform to every uplink payload, in place.

    ``states`` is a :class:`~repro.runtime.executors.ClientUpdate`'s
    ``states`` mapping (payload name → state dict). The ``reference``
    (round-start global state) anchors delta-space attacks for the payload
    whose signature matches it; delta-like payloads (normalized gradients,
    control deltas, logit tables) are attacked in their own space. The
    transform is pure in ``(seed, round, client)`` — the same corrupted
    bytes emerge no matter which executor produced the honest update.

    ``labelflip`` is a *training-time* role with no payload transform; it
    is a no-op here by design.
    """
    if role == LABELFLIP:
        return
    if role not in ATTACK_KINDS:
        raise ValueError(f"unknown attack role {role!r}; options: {ATTACK_KINDS}")
    rng = plan.attack_rng(round_idx, client_id)
    for name in list(states):
        state = states[name]
        ref = reference if _matches(reference, state) else None
        states[name] = OrderedDict(
            (k, _poison_array(role, v, None if ref is None else ref[k], rng, plan.spec))
            for k, v in state.items()
        )
