"""Ensemble strategies for multi-model knowledge fusion (paper Eq. 5).

The server receives the knowledge networks {θ_g^k} of the sampled clients
and forms an ensemble teacher Θ. The paper investigates three strategies —
max logits, average logits and majority vote — and adopts max logits
("the max logits get the best results in practice"). All three operate on a
stacked logit tensor of shape (M, N, C): M member models, N samples,
C classes.

This module is dependency-light (NumPy + nn only) so both the FedDF baseline
and FedKEMF can share it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.autograd import no_grad
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.registry import Registry

__all__ = [
    "ENSEMBLE_REGISTRY",
    "ensemble_max",
    "ensemble_mean",
    "ensemble_vote",
    "ensemble_logits",
    "weighted_ensemble_logits",
    "member_logits",
    "EnsembleModule",
]

ENSEMBLE_REGISTRY: Registry = Registry("ensemble strategy")


@ENSEMBLE_REGISTRY.register("max", "max-logits")
def ensemble_max(stacked: np.ndarray) -> np.ndarray:
    """Element-wise maximum over member logits (Eq. 5, the paper's choice)."""
    return stacked.max(axis=0)


@ENSEMBLE_REGISTRY.register("mean", "avg", "average-logits")
def ensemble_mean(stacked: np.ndarray) -> np.ndarray:
    """Average logits (the FedDF convention)."""
    return stacked.mean(axis=0)


@ENSEMBLE_REGISTRY.register("vote", "majority-vote")
def ensemble_vote(stacked: np.ndarray) -> np.ndarray:
    """Majority vote, returned as vote-count pseudo-logits.

    Each member votes for its argmax class; the output entry (n, c) is the
    number of votes class c received on sample n. Vote counts act as logits
    for downstream distillation (softmax of counts = a soft vote share).
    """
    m, n, c = stacked.shape
    votes = stacked.argmax(axis=2)  # (M, N)
    # bincount over flattened (sample, class) pairs — vote counts are small
    # integers, so the float accumulation is exact and order-independent
    # (and ~10x faster than the equivalent np.add.at scatter).
    flat = votes + np.arange(n)[None, :] * c  # (M, N) linear indices
    counts = np.bincount(flat.ravel(), minlength=n * c)
    return counts.reshape(n, c).astype(stacked.dtype)


def ensemble_logits(stacked: np.ndarray, strategy: str = "max") -> np.ndarray:
    """Apply a named strategy to stacked member logits (M, N, C) → (N, C)."""
    stacked = np.asarray(stacked)
    if stacked.ndim != 3:
        raise ValueError(f"expected stacked logits of shape (M, N, C); got {stacked.shape}")
    if stacked.shape[0] == 0:
        raise ValueError("cannot ensemble zero members")
    fn = ENSEMBLE_REGISTRY.get(strategy)
    return fn(stacked)


def weighted_ensemble_logits(
    stacked: np.ndarray,
    strategy: str = "max",
    weights: "Sequence[float] | None" = None,
) -> np.ndarray:
    """Ensemble with per-member weights (buffered FL's staleness discounts).

    A member's weight scales its influence on the teacher in the natural
    way for each strategy:

    - ``mean``: weighted average of logits (``np.average``);
    - ``vote``: each member casts ``weight`` ballots instead of one;
    - ``max``: member logits are scaled by the weight before the
      element-wise maximum, so a heavily-discounted member only wins a
      logit slot when its (scaled) confidence still dominates.

    ``weights=None`` or all-unit weights delegate to
    :func:`ensemble_logits` verbatim — bitwise, not just numerically —
    which is what keeps a fresh buffered merge identical to the
    synchronous path. Custom registry strategies have no defined weighted
    form and raise.
    """
    stacked = np.asarray(stacked)
    if weights is None:
        return ensemble_logits(stacked, strategy)
    if stacked.ndim != 3:
        raise ValueError(f"expected stacked logits of shape (M, N, C); got {stacked.shape}")
    w = np.asarray(list(weights), dtype=np.float64)
    if w.shape != (stacked.shape[0],):
        raise ValueError(
            f"need one weight per member ({stacked.shape[0]}); got shape {w.shape}"
        )
    if np.any(w < 0) or float(w.sum()) <= 0.0:
        raise ValueError("member weights must be non-negative with positive sum")
    if np.all(w == 1.0):
        return ensemble_logits(stacked, strategy)
    fn = ENSEMBLE_REGISTRY.get(strategy)
    if fn is ensemble_mean:
        return np.average(stacked, axis=0, weights=w).astype(stacked.dtype)
    if fn is ensemble_vote:
        m, n, c = stacked.shape
        votes = stacked.argmax(axis=2)  # (M, N)
        flat = votes + np.arange(n)[None, :] * c
        counts = np.bincount(
            flat.ravel(), weights=np.repeat(w, n), minlength=n * c
        )
        return counts.reshape(n, c).astype(stacked.dtype)
    if fn is ensemble_max:
        return (stacked * w[:, None, None]).max(axis=0).astype(stacked.dtype)
    raise ValueError(
        f"ensemble strategy {strategy!r} has no weighted form; "
        "register one or use unweighted ensemble_logits"
    )


def member_logits(
    model: Module, x: np.ndarray, batch_size: int = 256, out: "np.ndarray | None" = None
) -> np.ndarray:
    """One member's logits over an array of inputs, computed in eval mode.

    The forward runs in ``batch_size`` chunks; each chunk's logits are
    written straight into ``out`` (allocated on the first chunk when not
    supplied), so a full pass costs zero list/concatenate copies. Pass a
    slice of a preallocated stacked buffer to collect many members without
    intermediate allocation (as :func:`repro.core.fusion.fuse_ensemble_distill`
    does).
    """
    was_training = model.training
    model.eval()
    with no_grad():
        for start in range(0, len(x), batch_size):
            chunk = model(Tensor(x[start : start + batch_size])).data
            if out is None:
                out = np.empty((len(x), chunk.shape[1]), dtype=chunk.dtype)
            out[start : start + chunk.shape[0]] = chunk
    if was_training:
        model.train()
    if out is None:
        raise ValueError("member_logits needs a non-empty input batch")
    return out


class EnsembleModule(Module):
    """A prediction-level ensemble usable wherever a model is expected.

    Wraps member models (possibly heterogeneous architectures) and fuses
    their logits with a named strategy on each forward. Used to *evaluate*
    ensembles (Fed-ensemble / FedMD-style systems whose "global model" is
    the committee itself); it is not trainable through the fused output.
    """

    def __init__(self, members: Sequence[Module], strategy: str = "mean") -> None:
        super().__init__()
        if not members:
            raise ValueError("ensemble needs at least one member")
        from repro.nn.layers.container import ModuleList

        self.members = ModuleList(list(members))
        self.strategy = strategy
        ENSEMBLE_REGISTRY.get(strategy)  # fail fast on unknown strategy

    def forward(self, x: Tensor) -> Tensor:
        stacked = np.stack([m(x).data for m in self.members], axis=0)
        return Tensor(ensemble_logits(stacked, self.strategy))
