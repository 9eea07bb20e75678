"""Optimizers: SGD for local training, Adam for server distillation."""

from repro.nn.optim.optimizer import Optimizer, clip_grad_norm
from repro.nn.optim.sgd import SGD
from repro.nn.optim.adam import Adam

__all__ = [
    "Optimizer",
    "clip_grad_norm",
    "SGD",
    "Adam",
]
