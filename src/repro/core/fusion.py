"""Server fusion of uploaded knowledge networks.

FedKEMF "provides two model fusion methods": (1) traditional weight
averaging of the knowledge networks, and (2) ensemble distillation into the
global knowledge network (the mode evaluated in the paper). Both consume the
same uploaded state dicts, so the choice is a config switch
(``FLConfig.fusion``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.core.distill import DistillConfig, distill_to_student
from repro.core.ensemble import member_logits, weighted_ensemble_logits
from repro.data.dataset import Dataset
from repro.nn.functional import shared_operand
from repro.nn.module import Module
from repro.nn.serialization import average_states

__all__ = ["fuse_weight_average", "fuse_ensemble_distill", "FUSION_MODES"]

FUSION_MODES = ("weight-average", "ensemble-distill")


def fuse_weight_average(
    global_knowledge: Module,
    client_states: Sequence[Mapping[str, np.ndarray]],
    weights: Sequence[float] | None = None,
) -> None:
    """Fusion method 1: plain (weighted) averaging, FedAvg-style, in place."""
    global_knowledge.load_state_dict(average_states(list(client_states), list(weights) if weights else None))


def fuse_ensemble_distill(
    global_knowledge: Module,
    scratch: Module,
    client_states: Sequence[Mapping[str, np.ndarray]],
    weights: Sequence[float] | None,
    public: Dataset,
    strategy: str,
    distill_config: DistillConfig,
    init_from_average: bool = True,
    member_weights: "Sequence[float] | None" = None,
    member_filter=None,
) -> float:
    """Fusion method 2 (the paper's): ensemble then distill (Alg. 2).

    Teacher logits for each member are computed by loading that member's
    state into ``scratch`` one at a time, so memory stays one-model deep.
    ``init_from_average`` warm-starts the student at the weight average
    before distilling (the standard FedDF initialization, which the
    ensemble-fusion ablation toggles).

    ``member_weights`` (one per client state) weights the ensemble teacher
    itself — the buffered server regime passes its staleness discounts
    here so a stale member shapes the teacher less. ``None`` or all-unit
    weights keep the unweighted teacher bit-identical to before.

    ``member_filter``, when given, is called as
    ``member_filter(stacked, member_weights)`` on the full (M, N, C) logit
    stack and may veto/down-weight members before the teacher is formed —
    the robust-aggregation seam that drops corrupted-logit knowledge
    networks. Returning ``member_weights`` unchanged keeps the teacher
    bitwise identical to the unfiltered path.

    Returns the final distillation loss.
    """
    if not client_states:
        raise ValueError("no client knowledge states to fuse")
    x, _ = public.arrays()
    # All member logits land in one preallocated (M, N, C) buffer: each
    # member is loaded into ``scratch`` once and forwarded over the public
    # set in eval-chunk batches, writing straight into its buffer row — no
    # per-member arrays and no final np.stack copy. Every member's first conv
    # reads the same public chunks, so their im2col operands are gathered
    # once for the whole pass (``shared_operand``; bit-identical).
    chunk = distill_config.eval_batch_size
    stacked: np.ndarray | None = None
    with shared_operand(x):
        for mi, state in enumerate(client_states):
            scratch.load_state_dict(state)
            if stacked is None:
                first = member_logits(scratch, x, batch_size=chunk)
                stacked = np.empty((len(client_states), *first.shape), dtype=first.dtype)
                stacked[0] = first
            else:
                member_logits(scratch, x, batch_size=chunk, out=stacked[mi])
    if member_filter is not None:
        member_weights = member_filter(stacked, member_weights)
    teacher = weighted_ensemble_logits(stacked, strategy, member_weights)

    if init_from_average:
        fuse_weight_average(global_knowledge, client_states, weights)
    return distill_to_student(global_knowledge, teacher, public, distill_config)
