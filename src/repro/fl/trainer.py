"""Local SGD training shared by every FL algorithm.

Each baseline differs only in (a) what it adds to the local gradient
(FedProx's proximal pull, SCAFFOLD's control-variate correction) and (b)
what it communicates. :class:`LocalTrainer` factors out (a) behind a
``grad_hook`` so algorithm classes stay small, and counts optimizer steps
exactly (FedNova's τ_i normalization depends on the true count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.data.dataset import Dataset
from repro.data.loader import DataLoader
from repro.nn import functional as F
from repro.nn.batched import StackedModel, cross_entropy_k
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor

__all__ = ["LocalTrainer", "TrainStats", "lockstep_batches", "train_stacked"]

# hook(model) runs after backward and before the optimizer step;
# it may modify p.grad in place.
GradHook = Callable[[Module], None]


@dataclass
class TrainStats:
    """What a local training pass did."""

    steps: int
    epochs: int
    samples_seen: int
    mean_loss: float


class LocalTrainer:
    """Runs E epochs of mini-batch SGD on one client shard.

    Parameters
    ----------
    dataset:
        Client training shard.
    batch_size, lr, momentum, weight_decay:
        Local solver hyperparameters (paper defaults live in
        :mod:`repro.experiments.configs`).
    seed:
        Loader shuffle seed; vary per (client, round) for honest SGD noise.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.seed = seed

    def make_loader(self, round_idx: int = 0) -> DataLoader:
        return DataLoader(
            self.dataset,
            batch_size=self.batch_size,
            shuffle=True,
            seed=self.seed * 100003 + round_idx,
        )

    def train(
        self,
        model: Module,
        epochs: int,
        round_idx: int = 0,
        grad_hook: GradHook | None = None,
        lr: float | None = None,
    ) -> TrainStats:
        """Standard supervised local update (cross-entropy, Eq. 1)."""
        loader = self.make_loader(round_idx)
        opt = SGD(
            model.parameters(),
            lr=lr if lr is not None else self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        model.train()
        steps = 0
        samples = 0
        loss_sum = 0.0
        for _epoch in range(epochs):
            for xb, yb in loader:
                opt.zero_grad()
                loss = F.cross_entropy(model(Tensor(xb)), yb)
                loss.backward()
                if grad_hook is not None:
                    grad_hook(model)
                opt.step()
                steps += 1
                samples += len(yb)
                loss_sum += loss.item() * len(yb)
        return TrainStats(
            steps=steps,
            epochs=epochs,
            samples_seen=samples,
            mean_loss=loss_sum / max(samples, 1),
        )


def lockstep_batches(
    trainers: "list[LocalTrainer]", k: int, epochs: int, round_idx: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Shared scaffold of the lockstep cohort trainers (:func:`train_stacked`
    and :func:`repro.core.mutual.train_stacked_mutual`).

    Checks — eagerly, before the caller has touched a model — that the ``k``
    trainers agree on every solver hyperparameter (all a trainer holds but
    its shard and loader seed), materializes each client's full E-epoch
    batch schedule, and returns an iterator that builds the per-step
    ``(K, B, …)`` input and label stacks one step at a time.

    Each schedule consumes its client's loader RNG exactly like the serial
    nested loops, so the minibatch contents are bit-identical to a serial
    run. Callers group clients by shard size beforehand: equal shard sizes
    plus a shared ``batch_size`` yield identical per-step batch shapes,
    which is what lets the cohort train in lockstep without padding or
    masking.
    """
    if len(trainers) != k:
        raise ValueError(f"expected {k} trainers, got {len(trainers)}")
    solver = [
        {name: v for name, v in vars(tr).items() if name not in ("dataset", "seed")}
        for tr in trainers
    ]
    if any(s != solver[0] for s in solver[1:]):
        raise ValueError("cohort trainers must share solver hyperparameters")
    schedules = []
    for tr in trainers:
        loader = tr.make_loader(round_idx)
        schedules.append([batch for _epoch in range(epochs) for batch in loader])
    if any(len(s) != len(schedules[0]) for s in schedules):
        raise ValueError("cohort clients must share a batch schedule")
    return (
        (np.stack([xb for xb, _yb in step]), np.stack([yb for _xb, yb in step]))
        for step in zip(*schedules)
    )


def train_stacked(
    stacked: StackedModel,
    trainers: "list[LocalTrainer]",
    epochs: int,
    round_idx: int = 0,
    lr: float | None = None,
) -> list[TrainStats]:
    """Lockstep cohort version of :meth:`LocalTrainer.train`.

    Trains K clients' models (folded into ``stacked``) as one vectorized
    program; per-client results are bit-identical to K sequential
    :meth:`LocalTrainer.train` calls. Requires every trainer to share solver
    hyperparameters and an equal-length batch schedule
    (:func:`lockstep_batches`).
    """
    k = stacked.k
    batches = lockstep_batches(trainers, k, epochs, round_idx)
    first = trainers[0]
    opt = SGD(
        stacked.parameters(),
        lr=lr if lr is not None else first.lr,
        momentum=first.momentum,
        weight_decay=first.weight_decay,
    )
    stacked.train()
    ones = np.ones(k, dtype=np.float32)
    steps = 0
    samples = [0] * k
    # Per-client float64 accumulators updated in step order — the identical
    # sequence of Python-float ops the serial loop performs.
    loss_sums = [0.0] * k
    for xb, yb in batches:
        opt.zero_grad()
        losses = cross_entropy_k(stacked(Tensor(xb)), yb)
        losses.backward(ones)
        opt.step()
        steps += 1
        n = yb.shape[1]
        losses_data = losses.data
        for j in range(k):
            samples[j] += n
            loss_sums[j] += float(losses_data[j]) * n
    return [
        TrainStats(
            steps=steps,
            epochs=epochs,
            samples_seen=samples[j],
            mean_loss=loss_sums[j] / max(samples[j], 1),
        )
        for j in range(k)
    ]
