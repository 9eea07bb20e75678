"""Robust server aggregation and the server-boundary update gate.

The round loop trusts nothing a client uploads. Two independent layers
defend the global model:

1. :func:`validate_update` — a cheap admission gate every wire-decoded
   payload passes before aggregation: finite values, the weights payload's
   state layout against the global model's, and an optional L2 norm
   ceiling on the update delta. Failures become ``rejected-update`` entries
   in the failure taxonomy (:data:`repro.runtime.runtime.REJECTED_UPDATE`)
   instead of crashes or silent poisoning.

2. :class:`RobustAggregator` — the Byzantine-robust combination policies
   (``mean`` | ``clip`` | ``autoclip`` | ``trimmed`` | ``median`` |
   ``krum``) the FedAvg-family ``aggregate`` hooks delegate to via
   ``FLAlgorithm._combine_states``, plus confidence/outlier member
   filtering (:func:`confidence_member_weights`) for the distillation
   family's logit ensembles.

Both layers compute on :class:`~repro.nn.serialization.FlatState` buffers.
``combine`` flattens its states and reference once on entry into the first
state's layout and returns a ``FlatState`` in that layout: clipping scales
each float buffer, trimmed mean and median reduce each dtype buffer stacked
``(K, P)`` over the client axis, and Krum measures distances between the
float buffers. Two things stay per entry on purpose: ``_delta_norm`` sums
one ``np.dot`` per float entry in key order (a whole-buffer dot would sum
in another order), and the gate builds its reason string key by key, only
once a check has failed.

Contracts the rest of the system relies on:

- ``MeanAggregator.combine`` delegates to
  :func:`repro.nn.serialization.average_states` **bitwise** — a run with
  ``defense="mean"`` replays an undefended run's fingerprint exactly.
- Aggregators with mutable state (``autoclip``) round-trip through
  ``state()`` / ``load_state()`` and ride inside
  ``FLAlgorithm.server_state()`` under the reserved ``"_defense"`` key
  (a registry contract test checks it), so defended runs resume
  bit-identically.
- Everything here is deterministic: no RNG, no wall clock, no dependence
  on aggregation order beyond the sorted-by-client-id order the round loop
  already guarantees.

This module imports nothing from :mod:`repro.fl.algorithms` (the algorithm
layer imports *us*), keeping the import graph acyclic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.nn.serialization import FlatState, average_states, state_layout

__all__ = [
    "DEFENSE_KINDS",
    "RobustAggregator",
    "MeanAggregator",
    "NormClipAggregator",
    "AutoClipAggregator",
    "TrimmedMeanAggregator",
    "CoordinateMedianAggregator",
    "KrumAggregator",
    "parse_defense",
    "default_defenses",
    "validate_update",
    "confidence_member_weights",
]

StateDict = Mapping[str, np.ndarray]


# ---------------------------------------------------------------------- #
# shared numerics
# ---------------------------------------------------------------------- #


def _flatten(
    states: "Sequence[StateDict]", reference: "StateDict | None" = None
) -> "tuple[list[FlatState], FlatState | None]":
    """``states`` and ``reference`` flattened once on entry into the first
    state's layout, their entries cast to its dtypes."""
    layout = state_layout(states[0])
    flats = [FlatState.of(s, layout) for s in states]
    return flats, None if reference is None else FlatState.of(reference, layout)


def _delta_norm(state: FlatState, reference: "StateDict | None") -> float:
    """Global L2 norm of ``state`` (or of ``state − reference``) over its
    float entries, accumulated in float64: one ``np.dot`` per entry, summed
    as Python floats in key order (a whole-buffer dot would sum in another
    order)."""
    total = 0.0
    for name, a in state.items():
        if a.dtype.kind == "f":
            x = a.astype(np.float64).ravel()
            if reference is not None:
                x = x - np.asarray(reference[name], dtype=np.float64).ravel()
            total += float(np.dot(x, x))
    return float(np.sqrt(total))


def _scaled_toward(state: FlatState, reference: "FlatState | None", factor: float) -> FlatState:
    """``reference + factor·(state − reference)`` per float buffer (plain
    ``factor·state`` when no reference anchors the delta), computed in
    float64; non-float buffers pass through unchanged. ``reference`` is in
    ``state``'s layout."""
    if factor == 1.0:
        return state
    buffers = list(state.buffers)
    for b in state.layout.float_buffers:
        x = buffers[b].astype(np.float64)
        if reference is not None:
            r = reference.buffers[b].astype(np.float64)
            x = r + factor * (x - r)
        else:
            x = factor * x
        buffers[b] = x.astype(state.buffers[b].dtype)
    return FlatState(state.layout, buffers)


def _columnwise(flats: "list[FlatState]", reduce) -> FlatState:
    """``reduce`` over the client axis of every dtype buffer, stacked
    ``(K, P)`` in float64, each result cast back to its buffer's dtype."""
    layout = flats[0].layout
    return FlatState(
        layout,
        [
            reduce(np.stack([f.buffers[b] for f in flats], dtype=np.float64)).astype(dtype)
            for b, dtype in enumerate(layout.buffer_dtypes)
        ],
    )


# ---------------------------------------------------------------------- #
# aggregator family
# ---------------------------------------------------------------------- #


class RobustAggregator:
    """Combination policy for the accepted clients' state dicts.

    ``combine(states, weights, reference)`` returns the fused state as a
    :class:`~repro.nn.serialization.FlatState` in the first state's layout;
    ``reference`` is the round-start global state when the inputs are full
    weight payloads (anchoring delta-space policies like norm clipping) and
    ``None`` when the caller already works in delta space (FedNova's
    normalized gradients, SCAFFOLD's control deltas). The states and the
    reference are flattened into the first state's layout on entry.

    ``stateful`` aggregators carry mutable cross-round state; it must
    round-trip through :meth:`state` / :meth:`load_state` (a registry
    contract test checks it) because the algorithm layer checkpoints it
    inside ``server_state()``.
    """

    kind = "base"
    stateful = False
    # Whether the distillation family should pass its logit ensembles
    # through confidence/outlier member filtering under this policy. The
    # plain mean keeps the bitwise-identical unfiltered path.
    filters_members = True

    def combine(
        self,
        states: "Sequence[StateDict]",
        weights: "Sequence[float] | None",
        reference: "StateDict | None" = None,
    ) -> FlatState:
        raise NotImplementedError

    def member_filter(
        self, stacked: np.ndarray, base: "Sequence[float] | None" = None
    ) -> "Sequence[float] | np.ndarray | None":
        """Ensemble-member weights for an (M, N, C) logit stack; ``base``
        (e.g. staleness discounts) is composed in. Returns ``base``
        unchanged when nothing is filtered, preserving the caller's
        bitwise unweighted path."""
        if not self.filters_members:
            return base
        return confidence_member_weights(stacked, base)

    def state(self) -> dict:
        """Mutable cross-round state, by value (checkpoint payload)."""
        return {}

    def load_state(self, state: dict) -> None:
        """Inverse of :meth:`state`."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class MeanAggregator(RobustAggregator):
    """The undefended baseline: sample-count-weighted averaging.

    Delegates to :func:`average_states` so ``defense="mean"`` replays an
    undefended run bit-for-bit — the anchor the robustness benchmarks and
    parity tests compare against.
    """

    kind = "mean"
    filters_members = False

    def combine(self, states, weights, reference=None):
        return average_states(list(states), list(weights) if weights is not None else None)


class NormClipAggregator(RobustAggregator):
    """Norm-bounded averaging: every client's delta is shrunk onto the L2
    ball of radius ``tau`` before the weighted average, bounding any single
    attacker's displacement of the global model to ``w_i·tau``."""

    kind = "clip"

    def __init__(self, tau: float = 10.0) -> None:
        if not tau > 0:
            raise ValueError(f"clip threshold must be positive; got {tau}")
        self.tau = float(tau)

    def _clip_factor(self, norm: float, tau: "float | None") -> float:
        if tau is None or norm <= tau or norm == 0.0:
            return 1.0
        return tau / norm

    def _clipped_average(self, states, weights, reference, tau) -> "tuple[FlatState, list[float]]":
        """The weighted average of ``states`` with every delta shrunk onto
        the ``tau`` ball, and the delta norms it measured."""
        flats, reference = _flatten(states, reference)
        norms = [_delta_norm(s, reference) for s in flats]
        clipped = [
            _scaled_toward(s, reference, self._clip_factor(n, tau)) for s, n in zip(flats, norms)
        ]
        return average_states(clipped, list(weights) if weights is not None else None), norms

    def combine(self, states, weights, reference=None):
        return self._clipped_average(states, weights, reference, self.tau)[0]


class AutoClipAggregator(NormClipAggregator):
    """Adaptive norm clipping: the threshold for round *t* is the median
    client delta norm observed in round *t−1* (no clipping on the first
    round, when there is no history). The running threshold is mutable
    state — it must ride in checkpoints or a resumed run clips differently
    and drifts."""

    kind = "autoclip"
    stateful = True

    def __init__(self) -> None:
        self._tau: "float | None" = None

    def combine(self, states, weights, reference=None):
        out, norms = self._clipped_average(states, weights, reference, self._tau)
        self._tau = float(np.median(norms))
        return out

    def state(self) -> dict:
        return {"tau": self._tau}

    def load_state(self, state: dict) -> None:
        tau = state["tau"]
        self._tau = None if tau is None else float(tau)


class TrimmedMeanAggregator(RobustAggregator):
    """Coordinate-wise β-trimmed mean: per scalar coordinate, drop the
    ``floor(β·m)`` largest and smallest client values and average the rest
    (Yin et al. 2018). Aggregation weights are ignored — trimming is an
    order statistic, and sample-count weighting would let an attacker buy
    influence with a claimed shard size. Since β < 0.5, ``2·floor(β·m) <
    m``: at least one member always survives the trim.

    Each dtype buffer is stacked ``(K, P)`` and reduced over the client
    axis, so the mean sums every coordinate in client order. A per-entry
    stack of a size-1 entry would have been summed in NumPy's pairwise
    order instead, which differs in the last bit once eight or more values
    are averaged; no model in the zoo has a size-1 entry.
    """

    kind = "trimmed"

    def __init__(self, beta: float = 0.2) -> None:
        if not 0.0 <= beta < 0.5:
            raise ValueError(f"trim fraction must be in [0, 0.5); got {beta}")
        self.beta = float(beta)

    def combine(self, states, weights, reference=None):
        m = len(states)
        k = int(self.beta * m)
        return _columnwise(
            _flatten(states)[0],
            lambda stack: (stack if k == 0 else np.sort(stack, axis=0)[k : m - k]).mean(axis=0),
        )


class CoordinateMedianAggregator(RobustAggregator):
    """Coordinate-wise median — the β→0.5 limit of trimming; tolerates just
    under half the members being arbitrary."""

    kind = "median"

    def combine(self, states, weights, reference=None):
        return _columnwise(_flatten(states)[0], lambda stack: np.median(stack, axis=0))


class KrumAggregator(RobustAggregator):
    """Krum (Blanchard et al. 2017): select the single member closest to
    its ``m − f − 2`` nearest neighbours in squared L2 — a member only wins
    by sitting inside the honest cluster, so ``f`` colluding outliers can
    never be selected. Ties break on the lowest client index; with too few
    members for the theoretical bound the neighbour count falls back to
    ``m − 2`` (fail-open, documented rather than raising mid-run).

    A member's position is its float buffers in float64, in buffer order —
    key order whenever the state has one float dtype, as every zoo model
    does. The winner is returned as a copy.
    """

    kind = "krum"

    def __init__(self, f: int = 1) -> None:
        if f < 0:
            raise ValueError(f"assumed attacker count must be >= 0; got {f}")
        self.f = int(f)

    def combine(self, states, weights, reference=None):
        flats, _ = _flatten(states)
        m = len(flats)
        best = 0
        if m > 1:
            floats = flats[0].layout.float_buffers
            vecs = np.stack(
                [np.concatenate([s.buffers[b] for b in floats], dtype=np.float64) for s in flats]
            )
            sq = np.sum(vecs * vecs, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (vecs @ vecs.T)
            np.fill_diagonal(d2, np.inf)
            k = m - self.f - 2
            if k < 1:
                k = max(1, m - 2)
            k = min(k, m - 1)
            scores = np.sort(d2, axis=1)[:, :k].sum(axis=1)
            best = int(np.argmin(scores))
        return FlatState(flats[best].layout, [b.copy() for b in flats[best].buffers])


DEFENSE_KINDS = ("mean", "clip", "autoclip", "trimmed", "median", "krum")

# kind → zero/one-param factory; the optional parameter comes from the
# ``kind=value`` spec form (clip=τ, trimmed=β, krum=f).
_DEFENSE_FACTORIES = {
    "mean": lambda param=None: MeanAggregator(),
    "clip": lambda param=None: NormClipAggregator(**({} if param is None else {"tau": float(param)})),
    "autoclip": lambda param=None: AutoClipAggregator(),
    "trimmed": lambda param=None: TrimmedMeanAggregator(**({} if param is None else {"beta": float(param)})),
    "median": lambda param=None: CoordinateMedianAggregator(),
    "krum": lambda param=None: KrumAggregator(**({} if param is None else {"f": int(float(param))})),
}

_PARAMETERLESS = {"mean", "autoclip", "median"}


def parse_defense(text: "str | RobustAggregator | None") -> "RobustAggregator | None":
    """Parse a defense spec like ``"trimmed=0.3"`` into an aggregator.

    Grammar: ``mean`` | ``clip[=τ]`` | ``autoclip`` | ``trimmed[=β]`` |
    ``median`` | ``krum[=f]``. Returns ``None`` for ``None``/empty input
    (defenses off — the bitwise-replay default); passes an existing
    :class:`RobustAggregator` through unchanged. Unknown kinds raise a
    :class:`ValueError` naming every valid kind.
    """
    if text is None or isinstance(text, RobustAggregator):
        return text
    text = text.strip()
    if not text:
        return None
    kind, sep, param = text.partition("=")
    kind = kind.strip().lower()
    if kind not in _DEFENSE_FACTORIES:
        raise ValueError(
            f"unknown defense {kind!r}; options: {', '.join(DEFENSE_KINDS)} "
            "(parameterized forms: clip=<tau>, trimmed=<beta>, krum=<f>)"
        )
    if sep and kind in _PARAMETERLESS:
        raise ValueError(f"defense {kind!r} takes no parameter; got {text!r}")
    return _DEFENSE_FACTORIES[kind](param.strip() if sep else None)


def default_defenses() -> "list[RobustAggregator]":
    """One default-parameterized instance per registered kind (contract
    checks iterate these)."""
    return [factory() for factory in _DEFENSE_FACTORIES.values()]


# ---------------------------------------------------------------------- #
# server-boundary admission gate
# ---------------------------------------------------------------------- #


def validate_update(
    payloads: "Mapping[str, StateDict]",
    *,
    reference: "StateDict | None" = None,
    norm_ceiling: "float | None" = None,
) -> "str | None":
    """Admission check over one client's wire-decoded payloads.

    Returns ``None`` when the update is admissible, else a short human
    reason (the round loop records the client as ``rejected-update``).
    Each payload is taken as a :class:`~repro.nn.serialization.FlatState`
    (a plain mapping is flattened on entry). Checks, cheapest first:

    - every tensor in every payload is finite (no NaN/Inf poisoning): one
      ``isfinite`` per float buffer, and a walk in key order for the
      reason only when one fails;
    - the ``"state"`` payload, when present and a ``reference`` (the global
      model's state) is given, has the reference's layout — else, walking
      the keys for the reason, exactly the reference's keys and
      shapes. Dtype is lenient across float widths — the wire codecs
      legitimately decode fp16/q8/q4 payloads to float32 — but a
      float-vs-int mismatch is malformed;
    - with ``norm_ceiling`` set, the state payload's L2 delta from the
      reference stays under the ceiling.
    """
    flats: "dict[str, FlatState]" = {}
    for name, state in payloads.items():
        if not isinstance(state, Mapping):
            return f"{name}: payload is {type(state).__name__}, expected a state dict"
        flat = flats[name] = FlatState.of(state)
        if object in flat.layout.buffer_dtypes or not all(
            np.isfinite(flat.buffers[b]).all() for b in flat.layout.float_buffers
        ):
            for key, a in flat.items():
                if a.dtype == object:
                    return f"{name}[{key}]: object-dtype tensor"
                if a.dtype.kind == "f" and not np.isfinite(a).all():
                    return f"{name}[{key}]: non-finite values"
    state = flats.get("state")
    if state is not None and reference is not None:
        reference = FlatState.of(reference)
        if state.layout is not reference.layout:
            reason = _layout_mismatch(state, reference)
            if reason is not None:
                return reason
        if norm_ceiling is not None:
            norm = _delta_norm(state, reference)
            if norm > norm_ceiling:
                return f"state: update norm {norm:.4g} exceeds ceiling {norm_ceiling:.4g}"
    return None


def _layout_mismatch(state: FlatState, reference: FlatState) -> "str | None":
    """Why ``state`` cannot stand in for ``reference``: missing or extra
    keys, a shape, or a dtype of another kind (float widths may differ).
    ``None`` when only the key order or float widths differ."""
    if state.keys() != reference.keys():
        missing = sorted(set(reference) - set(state))
        extra = sorted(set(state) - set(reference))
        return f"state: key mismatch (missing={missing}, unexpected={extra})"
    for key, r in reference.items():
        a = state[key]
        if a.shape != r.shape:
            return f"state[{key}]: shape {a.shape} != expected {r.shape}"
        if a.dtype != r.dtype and not (a.dtype.kind == r.dtype.kind == "f"):
            return f"state[{key}]: dtype {a.dtype} incompatible with {r.dtype}"
    return None


# ---------------------------------------------------------------------- #
# distillation-family member filtering
# ---------------------------------------------------------------------- #


# Robust z-score (median/MAD) past which a member's confidence is an outlier.
_CONFIDENCE_Z = 2.5


def confidence_member_weights(
    stacked: np.ndarray,
    base: "Sequence[float] | None" = None,
) -> "Sequence[float] | np.ndarray | None":
    """Confidence/outlier weights for an (M, N, C) ensemble logit stack.

    Members whose logits are non-finite are dropped outright; the rest are
    scored by mean max-softmax confidence and members beyond
    ``_CONFIDENCE_Z`` robust z-scores (median/MAD) of the cohort are dropped
    — catching corrupted-logit knowledge networks whose confidence profile
    is either flat noise (far below the cohort) or saturated garbage (far
    above it). Fails open: when nothing is filtered the ``base`` weights
    (or ``None``) return **unchanged**, preserving the caller's bitwise
    unweighted ensemble path; when everything would be filtered, the
    finite members are kept.
    """
    stacked = np.asarray(stacked)
    m = stacked.shape[0]
    finite = np.array([bool(np.isfinite(stacked[i]).all()) for i in range(m)])
    if not finite.any():
        return base  # nothing usable to score; let the aggregator cope
    conf = np.zeros(m, dtype=np.float64)
    for i in range(m):
        if not finite[i]:
            continue
        logits = stacked[i].astype(np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        conf[i] = float(probs.max(axis=-1).mean())
    cohort = conf[finite]
    med = float(np.median(cohort))
    mad = float(np.median(np.abs(cohort - med)))
    keep = finite.copy()
    if mad > 0.0:
        z = np.abs(conf - med) / (1.4826 * mad)
        keep &= z <= _CONFIDENCE_Z
        if not keep.any():
            keep = finite.copy()
    if keep.all():
        return base  # fail open: bitwise-identical unfiltered path
    base_w = np.ones(m, dtype=np.float64) if base is None else np.asarray(base, dtype=np.float64)
    return base_w * keep
