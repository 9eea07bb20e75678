"""Server-side ensemble distillation (paper Eq. 4, Alg. 2 line 10).

The global knowledge network θ_g is trained to match the ensemble teacher's
output distribution on the server's public/unlabelled set:

    L_d = D_KL( Θ(x) ‖ θ_g(x) )

Teacher logits are precomputed once per round (the ensemble is frozen during
distillation), so the distillation loop touches only the student.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor

__all__ = ["DistillConfig", "distill_to_student", "distill_from_teacher_logits"]


@dataclass(frozen=True)
class DistillConfig:
    """Distillation solver settings (server side)."""

    epochs: int = 2
    lr: float = 5e-3
    batch_size: int = 64
    temperature: float = 1.0
    optimizer: str = "adam"  # "adam" | "sgd"
    seed: int = 0
    # chunk size for the frozen ensemble-teacher forward over the public
    # set (inference only — any value gives identical logits; bigger chunks
    # amortize per-batch overhead)
    eval_batch_size: int = 256

    @classmethod
    def from_config(cls, cfg) -> "DistillConfig":
        """The solver an :class:`~repro.fl.config.FLConfig` describes: its
        ``distill_*`` fields and its seed."""
        return cls(
            epochs=cfg.distill_epochs,
            lr=cfg.distill_lr,
            batch_size=cfg.distill_batch_size,
            temperature=cfg.distill_temperature,
            seed=cfg.seed,
        )


def distill_from_teacher_logits(
    student: Module,
    teacher_logits: np.ndarray,
    public_x: np.ndarray,
    config: DistillConfig,
) -> float:
    """Fit ``student`` to fixed teacher logits over ``public_x``.

    Returns the mean KL loss of the final epoch (a convergence telltale the
    tests assert decreases).
    """
    n = len(public_x)
    if teacher_logits.shape[0] != n:
        raise ValueError(
            f"teacher logits ({teacher_logits.shape[0]}) must match public set ({n})"
        )
    if config.optimizer == "adam":
        opt = Adam(student.parameters(), lr=config.lr)
    elif config.optimizer == "sgd":
        opt = SGD(student.parameters(), lr=config.lr, momentum=0.9)
    else:
        raise ValueError(f"unknown distillation optimizer {config.optimizer!r}")

    rng = np.random.default_rng(config.seed)
    student.train()
    last_epoch_loss = 0.0
    # Preallocated mini-batch gather buffers: the shuffled input/teacher
    # rows for each step are np.take'n into the same two arrays instead of
    # fancy-indexing fresh ones every step.
    bs = config.batch_size
    xbuf = np.empty((bs, *public_x.shape[1:]), dtype=public_x.dtype)
    tbuf = np.empty((bs, teacher_logits.shape[1]), dtype=teacher_logits.dtype)
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            b = len(idx)
            xb, tb = xbuf[:b], tbuf[:b]
            np.take(public_x, idx, axis=0, out=xb)
            np.take(teacher_logits, idx, axis=0, out=tb)
            student.zero_grad()
            logits = student(Tensor(xb))
            loss = F.kl_div_with_logits(tb, logits, temperature=config.temperature)
            loss.backward()
            opt.step()
            total += loss.item() * b
            seen += b
        last_epoch_loss = total / max(seen, 1)
    return last_epoch_loss


def distill_to_student(
    student: Module,
    teacher_logits: np.ndarray,
    public: Dataset,
    config: DistillConfig,
) -> float:
    """Convenience wrapper taking a dataset; labels are deliberately unused
    (the paper distils on unlabelled/public data)."""
    x, _unused_labels = public.arrays()
    return distill_from_teacher_logits(student, teacher_logits, x, config)
