"""Knowledge-network selection.

The knowledge network is the tiny model FedKEMF actually communicates. The
paper pairs ResNet-20 with the CIFAR experiments (even when local models are
ResNet-32 or VGG-11) and a second 2-layer CNN with the MNIST experiment
("since 2-layer CNN is a tiny size network, we use a separate 2-layer CNN
as the knowledge network").
"""

from __future__ import annotations

__all__ = ["KNOWLEDGE_DEFAULTS"]

# dataset family → default knowledge-network architecture name
KNOWLEDGE_DEFAULTS: dict[str, str] = {
    "cifar10": "resnet-20",
    "mnist": "cnn-2",
}
