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

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.trainer import LocalTrainer, lockstep_batches
from repro.nn import functional as F
from repro.nn.batched import StackedModel, cross_entropy_k, kl_div_with_logits_k
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
        opt_local = SGD(
            local_model.parameters(),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        opt_know = SGD(
            knowledge_net.parameters(),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        local_model.train()
        knowledge_net.train()

        steps = 0
        sum_local, sum_know, sum_kl, seen = 0.0, 0.0, 0.0, 0
        for _epoch in range(epochs):
            for xb, yb in loader:
                x = Tensor(xb)
                logits_local = local_model(x)
                logits_know = knowledge_net(x)

                # --- update θ (local model); θ_g's logits are constants ---
                local_model.zero_grad()
                ce_l = F.cross_entropy(logits_local, yb)
                kl_l = F.kl_div_with_logits(logits_know.detach(), logits_local)
                loss_l = ce_l + self.kl_weight * kl_l
                loss_l.backward()
                opt_local.step()

                # --- update θ_g (knowledge net); θ's logits are constants ---
                knowledge_net.zero_grad()
                ce_k = F.cross_entropy(logits_know, yb)
                kl_k = F.kl_div_with_logits(logits_local.detach(), logits_know)
                loss_k = ce_k + self.kl_weight * kl_k
                loss_k.backward()
                opt_know.step()

                n = len(yb)
                steps += 1
                seen += n
                sum_local += loss_l.item() * n
                sum_know += loss_k.item() * n
                sum_kl += 0.5 * (kl_l.item() + kl_k.item()) * n

        denom = max(seen, 1)
        return MutualTrainStats(
            steps=steps,
            mean_local_loss=sum_local / denom,
            mean_knowledge_loss=sum_know / denom,
            mean_kl=sum_kl / denom,
        )


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
    k = stacked_local.k
    if stacked_know.k != k:
        raise ValueError("cohort size mismatch between the two stacks")
    batches = lockstep_batches(trainers, k, epochs, round_idx)
    first = trainers[0]
    kl_weight = first.kl_weight
    opt_local = SGD(
        stacked_local.parameters(),
        lr=first.lr,
        momentum=first.momentum,
        weight_decay=first.weight_decay,
    )
    opt_know = SGD(
        stacked_know.parameters(),
        lr=first.lr,
        momentum=first.momentum,
        weight_decay=first.weight_decay,
    )
    stacked_local.train()
    stacked_know.train()

    ones = np.ones(k, dtype=np.float32)
    steps = 0
    seen = [0] * k
    sum_local = [0.0] * k
    sum_know = [0.0] * k
    sum_kl = [0.0] * k
    for xb, yb in batches:
        x = Tensor(xb)
        logits_local = stacked_local(x)
        logits_know = stacked_know(x)

        # --- update θ (local models); θ_g's logits are constants ---
        opt_local.zero_grad()
        ce_l = cross_entropy_k(logits_local, yb)
        kl_l = kl_div_with_logits_k(logits_know.detach(), logits_local)
        loss_l = ce_l + kl_weight * kl_l
        loss_l.backward(ones)
        opt_local.step()

        # --- update θ_g (knowledge nets); θ's logits are constants ---
        opt_know.zero_grad()
        ce_k = cross_entropy_k(logits_know, yb)
        kl_k = kl_div_with_logits_k(logits_local.detach(), logits_know)
        loss_k = ce_k + kl_weight * kl_k
        loss_k.backward(ones)
        opt_know.step()

        n = yb.shape[1]
        steps += 1
        loss_l_data, loss_k_data = loss_l.data, loss_k.data
        kl_l_data, kl_k_data = kl_l.data, kl_k.data
        for j in range(k):
            seen[j] += n
            sum_local[j] += float(loss_l_data[j]) * n
            sum_know[j] += float(loss_k_data[j]) * n
            sum_kl[j] += 0.5 * (float(kl_l_data[j]) + float(kl_k_data[j])) * n

    return [
        MutualTrainStats(
            steps=steps,
            mean_local_loss=sum_local[j] / max(seen[j], 1),
            mean_knowledge_loss=sum_know[j] / max(seen[j], 1),
            mean_kl=sum_kl[j] / max(seen[j], 1),
        )
        for j in range(k)
    ]
