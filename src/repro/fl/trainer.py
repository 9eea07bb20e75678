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
from repro.nn.batched import StackedModel
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
        batches = (batch for _epoch in range(epochs) for batch in loader)
        return _sgd(model, batches, self, epochs, lr, grad_hook)[0]


def _sgd(
    model: Module,
    batches: Iterator[tuple[np.ndarray, np.ndarray]],
    solver: LocalTrainer,
    epochs: int,
    lr: float | None,
    grad_hook: GradHook | None = None,
) -> list[TrainStats]:
    """The one local SGD loop, for one client or a stack of K.

    ``model`` is a client's network, fed ``(B, …)`` batches, or a
    :class:`StackedModel`, fed ``(K, B, …)`` ones; the loss then has shape
    ``(K,)`` and each client keeps its own float accumulators, updated in
    step order exactly as one client's are. ``solver`` supplies the SGD
    settings. Returns one :class:`TrainStats` per client.
    """
    opt = SGD(
        model.parameters(),
        lr=lr if lr is not None else solver.lr,
        momentum=solver.momentum,
        weight_decay=solver.weight_decay,
    )
    model.train()
    steps = 0
    samples = 0
    loss_sums = [0.0] * (model.k if isinstance(model, StackedModel) else 1)
    for xb, yb in batches:
        opt.zero_grad()
        loss = F.cross_entropy(model(Tensor(xb)), yb)
        loss.backward(np.ones_like(loss.data))
        if grad_hook is not None:
            grad_hook(model)
        opt.step()
        steps += 1
        n = yb.shape[-1]
        samples += n
        for j, value in enumerate(loss.data.reshape(-1).tolist()):
            loss_sums[j] += value * n
    return [
        TrainStats(
            steps=steps,
            epochs=epochs,
            samples_seen=samples,
            mean_loss=loss_sum / max(samples, 1),
        )
        for loss_sum in loss_sums
    ]


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
    batches = lockstep_batches(trainers, stacked.k, epochs, round_idx)
    return _sgd(stacked, batches, trainers[0], epochs, lr)
