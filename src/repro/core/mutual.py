"""Deep mutual learning — the paper's knowledge-extraction step (Alg. 1).

On each client, the (large, resource-matched) local model θ and the tiny
knowledge network θ_g are trained *together* on the local shard:

    θ   ← θ   − η ∇( CE(θ;b)   + λ·D_KL(θ_g ‖ θ) )      (Alg. 1 line 6)
    θ_g ← θ_g − η ∇( CE(θ_g;b) + λ·D_KL(θ ‖ θ_g) )      (Alg. 1 line 7)

Both updates are computed from one forward pass per network per batch, each
network treating the other's logits as a constant (the standard DML
simultaneous-update form; Zhang et al. 2018). λ = ``kl_weight`` is 1.0 in
the paper and is swept in the DML ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.trainer import LocalTrainer, lockstep_batches
from repro.nn import functional as F
from repro.nn.batched import StackedModel
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor

__all__ = ["MutualTrainStats", "DeepMutualTrainer", "train_stacked_mutual"]


@dataclass
class MutualTrainStats:
    """Measurements from one DML pass."""

    steps: int
    mean_local_loss: float
    mean_knowledge_loss: float
    mean_kl: float


class DeepMutualTrainer(LocalTrainer):
    """Runs Alg. 1 on one client shard.

    A :class:`~repro.fl.trainer.LocalTrainer` — same shard, loader seeding
    and ``solver`` keyword settings (``batch_size``, ``lr``, ``momentum``,
    ``weight_decay``, ``seed``) — whose :meth:`train` couples two networks;
    ``kl_weight`` scales both KL terms symmetrically.
    """

    def __init__(self, dataset: Dataset, kl_weight: float = 1.0, **solver) -> None:
        if kl_weight < 0:
            raise ValueError("kl_weight must be non-negative")
        super().__init__(dataset, **solver)
        self.kl_weight = kl_weight

    def train(
        self,
        local_model: Module,
        knowledge_net: Module,
        epochs: int,
        round_idx: int = 0,
    ) -> MutualTrainStats:
        """Mutually train ``local_model`` and ``knowledge_net`` for E epochs."""
        loader = self.make_loader(round_idx)
        batches = (batch for _epoch in range(epochs) for batch in loader)
        return _dml(local_model, knowledge_net, batches, self)[0]


def _dml(
    local_model: Module,
    knowledge_net: Module,
    batches: Iterator[tuple[np.ndarray, np.ndarray]],
    solver: DeepMutualTrainer,
) -> list[MutualTrainStats]:
    """The one deep-mutual-learning loop (Alg. 1), for one client or a
    stack of K.

    The two models are one client's networks, fed ``(B, …)`` batches, or
    two stacks of K (:class:`StackedModel`), fed ``(K, B, …)`` ones; every
    loss then has shape ``(K,)`` and each client keeps its own float
    accumulators, updated in step order exactly as one client's are.
    ``solver`` supplies the SGD settings and ``kl_weight``. Returns one
    :class:`MutualTrainStats` per client.
    """
    opt_local = SGD(
        local_model.parameters(),
        lr=solver.lr,
        momentum=solver.momentum,
        weight_decay=solver.weight_decay,
    )
    opt_know = SGD(
        knowledge_net.parameters(),
        lr=solver.lr,
        momentum=solver.momentum,
        weight_decay=solver.weight_decay,
    )
    local_model.train()
    knowledge_net.train()

    k = local_model.k if isinstance(local_model, StackedModel) else 1
    steps = 0
    seen = 0
    sum_local, sum_know, sum_kl = [0.0] * k, [0.0] * k, [0.0] * k
    for xb, yb in batches:
        x = Tensor(xb)
        logits_local = local_model(x)
        logits_know = knowledge_net(x)

        # --- update θ (local model); θ_g's logits are constants ---
        opt_local.zero_grad()
        ce_l = F.cross_entropy(logits_local, yb)
        kl_l = F.kl_div_with_logits(logits_know.detach(), logits_local)
        loss_l = ce_l + solver.kl_weight * kl_l
        loss_l.backward(np.ones_like(loss_l.data))
        opt_local.step()

        # --- update θ_g (knowledge net); θ's logits are constants ---
        opt_know.zero_grad()
        ce_k = F.cross_entropy(logits_know, yb)
        kl_k = F.kl_div_with_logits(logits_local.detach(), logits_know)
        loss_k = ce_k + solver.kl_weight * kl_k
        loss_k.backward(np.ones_like(loss_k.data))
        opt_know.step()

        n = yb.shape[-1]
        steps += 1
        seen += n
        per_client = (t.data.reshape(-1).tolist() for t in (loss_l, loss_k, kl_l, kl_k))
        for j, (ll, lk, kll, klk) in enumerate(zip(*per_client)):
            sum_local[j] += ll * n
            sum_know[j] += lk * n
            sum_kl[j] += 0.5 * (kll + klk) * n

    denom = max(seen, 1)
    return [
        MutualTrainStats(
            steps=steps,
            mean_local_loss=sum_local[j] / denom,
            mean_knowledge_loss=sum_know[j] / denom,
            mean_kl=sum_kl[j] / denom,
        )
        for j in range(k)
    ]


def train_stacked_mutual(
    stacked_local: StackedModel,
    stacked_know: StackedModel,
    trainers: "list[DeepMutualTrainer]",
    epochs: int,
    round_idx: int = 0,
) -> list[MutualTrainStats]:
    """Lockstep cohort version of :meth:`DeepMutualTrainer.train` (Alg. 1).

    Runs K clients' deep-mutual-learning passes as one stacked program —
    both networks' forwards precede both updates exactly as in the serial
    step, so per-client trajectories are bit-identical.
    """
    if stacked_know.k != stacked_local.k:
        raise ValueError("cohort size mismatch between the two stacks")
    batches = lockstep_batches(trainers, stacked_local.k, epochs, round_idx)
    return _dml(stacked_local, stacked_know, batches, trainers[0])
