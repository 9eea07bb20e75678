"""Evaluation metrics and the round-count queries behind Tables 1–2 / Fig. 6.

``rounds_to_target`` and ``converged_round`` operate on accuracy-vs-round
series; the experiment harness feeds them each algorithm's history to fill
the "Communication Rounds" and "Converge Rounds" columns.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.nn import functional as F
from repro.nn.autograd import no_grad
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = [
    "evaluate_model",
    "rounds_to_target",
    "converged_round",
    "average_local_accuracy",
    "client_fairness_report",
]


def evaluate_model(
    model: Module, dataset: Dataset, batch_size: int = 256
) -> tuple[float, float]:
    """Top-1 accuracy and mean cross-entropy loss on a dataset.

    Runs in eval mode under ``no_grad``; restores the model's training flag.
    """
    x, y = dataset.arrays()
    was_training = model.training
    model.eval()
    correct = 0
    total_nll = 0.0
    with no_grad():
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = model(Tensor(xb))
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            total_nll += F.cross_entropy(logits, yb, reduction="sum").item()
    if was_training:
        model.train()
    n = len(x)
    return correct / n, total_nll / n


def rounds_to_target(accuracies: "list[float] | np.ndarray", target: float) -> int | None:
    """First 1-based round index at which accuracy reaches ``target``.

    Returns ``None`` if the run never got there (the paper marks such rows
    with '*' and reports the full round budget).
    """
    for i, acc in enumerate(accuracies):
        if acc >= target:
            return i + 1
    return None


def converged_round(
    accuracies: "list[float] | np.ndarray",
    window: int = 5,
    tol: float = 0.005,
) -> int:
    """Detect convergence: the first round after which the accuracy gain over
    any subsequent ``window`` rounds never exceeds ``tol``.

    Falls back to the final round when the run is still improving — matching
    the paper's Table 2, where several entries sit at the round budget.
    """
    acc = np.asarray(accuracies, dtype=np.float64)
    n = len(acc)
    if n == 0:
        raise ValueError("empty accuracy series")
    if n <= window:
        return n
    # Running maximum from each index to the end.
    future_max = np.maximum.accumulate(acc[::-1])[::-1]
    for i in range(n - window):
        if future_max[i + 1 :].max() - acc[i] <= tol:
            return i + 1
    return n


def average_local_accuracy(
    models: "list[Module]", datasets: "list[Dataset]", batch_size: int = 256
) -> float:
    """Mean per-client local-test accuracy (Table 3's metric).

    ``models[i]`` is evaluated on ``datasets[i]`` — each edge client keeps
    its own (possibly heterogeneous) deployed model.
    """
    if len(models) != len(datasets):
        raise ValueError("models/datasets length mismatch")
    accs = [evaluate_model(m, d, batch_size)[0] for m, d in zip(models, datasets)]
    return float(np.mean(accs))


def client_fairness_report(
    models: "list[Module]", datasets: "list[Dataset]", batch_size: int = 256
) -> dict:
    """Distribution of per-client accuracy — the fairness lens the paper's
    introduction raises ("produce an unfair, ineffective global model").

    Returns mean/std/min/max plus the bottom-decile mean ("worst-10%"),
    the standard FL fairness summary (Michieli & Ozay 2021).
    """
    if len(models) != len(datasets):
        raise ValueError("models/datasets length mismatch")
    if not models:
        raise ValueError("need at least one client")
    accs = np.array([evaluate_model(m, d, batch_size)[0] for m, d in zip(models, datasets)])
    k = max(1, len(accs) // 10)
    worst = np.sort(accs)[:k]
    return {
        "per_client": accs,
        "mean": float(accs.mean()),
        "std": float(accs.std()),
        "min": float(accs.min()),
        "max": float(accs.max()),
        "worst_decile_mean": float(worst.mean()),
    }
