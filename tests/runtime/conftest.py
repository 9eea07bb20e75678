"""Fixtures for the execution-runtime tests: a micro federation that keeps
serial-vs-parallel parity runs in the seconds range."""

from __future__ import annotations

import functools

import pytest

from repro.data import IIDPartitioner
from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.nn.models import build_model


@pytest.fixture(scope="session")
def micro_fed():
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    return build_federated_dataset(
        world,
        num_clients=6,
        n_train=240,
        n_test=60,
        n_public=60,
        alpha=0.5,
        seed=0,
    )


@pytest.fixture(scope="session")
def micro_fed_equal():
    # Equal shard sizes (IID split of a divisible corpus): every sampled
    # cohort shares a batch schedule, so BatchedExecutor can stack it whole.
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    return build_federated_dataset(
        world,
        num_clients=6,
        n_train=240,
        n_test=60,
        n_public=60,
        partitioner=IIDPartitioner(6, seed=0),
        seed=0,
    )


@pytest.fixture(scope="session")
def micro_model_fn():
    # A partial of a module-level function (not a local closure) so that the
    # whole algorithm snapshot — which holds this factory — is picklable and
    # ParallelExecutor can ship it (it refuses work that does not pickle).
    return functools.partial(
        build_model,
        "mlp",
        num_classes=4,
        in_channels=1,
        image_size=8,
        width_mult=0.25,
        seed=1,
    )
