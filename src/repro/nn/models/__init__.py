"""The paper's model zoo.

Architectures used in the evaluation: ResNet-20/32/44 and VGG-11 on
CIFAR-10, a 2-layer CNN on MNIST, and ResNet-20 as the tiny "knowledge
network". Each builder accepts ``image_size`` and ``width_mult`` so the
same topology runs at paper scale (32×32, width 16) or the CPU-friendly
smoke scale used by the test suite.
"""

from repro.nn.models.cnn import CNN2Layer
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import CifarResNet, resnet20, resnet32, resnet44, resnet56
from repro.nn.models.vgg import VGG, vgg11
from repro.nn.models.factory import MODEL_REGISTRY, build_model, model_payload_mb
from repro.nn.models.knowledge import KNOWLEDGE_DEFAULTS

__all__ = [
    "CNN2Layer",
    "MLP",
    "CifarResNet",
    "resnet20",
    "resnet32",
    "resnet44",
    "resnet56",
    "VGG",
    "vgg11",
    "MODEL_REGISTRY",
    "build_model",
    "model_payload_mb",
    "KNOWLEDGE_DEFAULTS",
]
