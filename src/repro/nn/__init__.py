"""``repro.nn`` — a from-scratch NumPy deep-learning library.

This subpackage replaces PyTorch for the reproduction (no GPU frameworks are
available offline). It provides a reverse-mode autograd engine over NumPy
arrays (:mod:`repro.nn.tensor`), composite neural-network ops with
hand-written backward passes (:mod:`repro.nn.functional`, which also holds
the two losses the paper trains with), layer modules, the SGD and Adam
optimizers, and the paper's model zoo (2-layer CNN, MLP, VGG-11,
ResNet-20/32/44).

Gradient correctness of every primitive is verified against central finite
differences in ``tests/nn/test_gradcheck.py``.
"""

from repro.nn.autograd import is_grad_enabled, no_grad, set_grad_enabled
from repro.nn.tensor import Tensor
from repro.nn import functional
from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Linear,
    Conv2d,
    BatchNorm2d,
    MaxPool2d,
    AvgPool2d,
    AdaptiveAvgPool2d,
    ReLU,
    Dropout,
    Flatten,
    Identity,
    Sequential,
    ModuleList,
)
from repro.nn.serialization import (
    state_dict_num_bytes,
    dumps_state_dict,
    loads_state_dict,
)

__all__ = [
    "Tensor",
    "no_grad",
    "set_grad_enabled",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "ReLU",
    "Dropout",
    "Flatten",
    "Identity",
    "Sequential",
    "ModuleList",
    "state_dict_num_bytes",
    "dumps_state_dict",
    "loads_state_dict",
]
