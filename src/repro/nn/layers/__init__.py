"""Layer modules composing :mod:`repro.nn.functional` ops."""

from repro.nn.layers.linear import Linear
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import MaxPool2d, AvgPool2d, AdaptiveAvgPool2d
from repro.nn.layers.activation import ReLU
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.container import Sequential, ModuleList
from repro.nn.layers.flatten import Flatten, Identity

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "ReLU",
    "Dropout",
    "Sequential",
    "ModuleList",
    "Flatten",
    "Identity",
]
