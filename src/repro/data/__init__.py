"""Datasets, synthetic generators, loaders and federated partitioning.

The sandbox has no CIFAR-10/MNIST files and no network, so
:mod:`repro.data.synthetic` provides procedural drop-ins with the same tensor
shapes and class structure (see DESIGN.md §2 for the substitution argument).
Everything downstream — Dirichlet partitioning, loaders, FL training — is
dataset-agnostic and treats these exactly as it would the real corpora.
"""

from repro.data.dataset import ArrayDataset, Dataset, Subset
from repro.data.loader import DataLoader
from repro.data.synthetic import (
    SyntheticImageDataset,
    SyntheticSpec,
    make_synthetic_cifar10,
    make_synthetic_mnist,
    make_blobs,
)
from repro.data.partition import (
    Partitioner,
    DirichletPartitioner,
    IIDPartitioner,
    ShardPartitioner,
    QuantitySkewPartitioner,
    PARTITIONER_REGISTRY,
    partition_report,
)
from repro.data.federated import FederatedDataset, build_federated_dataset
from repro.data.lazy import LazyFederatedDataset
from repro.data.files import (
    load_cifar10_dir,
    load_mnist_dir,
    read_idx,
    write_idx,
    resolve_dataset,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "SyntheticImageDataset",
    "SyntheticSpec",
    "make_synthetic_cifar10",
    "make_synthetic_mnist",
    "make_blobs",
    "Partitioner",
    "DirichletPartitioner",
    "IIDPartitioner",
    "ShardPartitioner",
    "QuantitySkewPartitioner",
    "PARTITIONER_REGISTRY",
    "partition_report",
    "FederatedDataset",
    "build_federated_dataset",
    "LazyFederatedDataset",
    "load_cifar10_dir",
    "load_mnist_dir",
    "read_idx",
    "write_idx",
    "resolve_dataset",
]
