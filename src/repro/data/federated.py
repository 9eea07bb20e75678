"""Federated dataset assembly.

Bundles everything one FL experiment needs: per-client train shards,
per-client *local* test shards (Table 3 evaluates average local accuracy),
a global test set, and the server-side public/unlabelled split used by
ensemble distillation (Eq. 4 — "using unlabeled data, generative data, or
public data in the server").

The eager :func:`build_federated_dataset` draws and splits nothing itself:
it is the shard recipe of :class:`~repro.data.lazy.LazyFederatedDataset`
with every client built in one draw, held as dense per-client arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.data.lazy import LazyFederatedDataset
from repro.data.partition import Partitioner
from repro.data.synthetic import SyntheticImageDataset

__all__ = ["FederatedDataset", "build_federated_dataset"]


@dataclass
class FederatedDataset:
    """All data views for one federated experiment.

    Attributes
    ----------
    client_train:
        One training shard per client (non-IID under the paper's settings).
    client_test:
        One *local* held-out shard per client, drawn from the same client
        distribution (used for Table 3's average local accuracy).
    server_test:
        Global IID test set (used for Figures 4–6 top-1 accuracy).
    server_public:
        Server-side distillation set. Labels are present in the container
        but distillation never reads them (unlabelled per the paper).
    num_classes:
        Task class count.
    """

    client_train: list[Dataset]
    client_test: list[Dataset]
    server_test: Dataset
    server_public: Dataset
    num_classes: int

    @property
    def num_clients(self) -> int:
        return len(self.client_train)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Per-sample feature shape (probed by the runtime's virtual clock;
        the lazy federation exposes the same property without touching a
        shard)."""
        sample, _label = self.client_train[0][0]
        return tuple(np.asarray(sample).shape)

    def client_size(self, cid: int) -> int:
        """``len(client_train[cid])`` — the aggregation weight. Mirrored by
        :class:`repro.data.lazy.LazyFederatedDataset` in O(1) without
        materializing the shard, so algorithm code should prefer this over
        ``len(fed.client_train[cid])``."""
        return len(self.client_train[cid])

    def client_sizes(self) -> np.ndarray:
        return np.array([len(d) for d in self.client_train])

    def validate(self) -> None:
        """Sanity checks (used by tests and the experiment runner)."""
        if len(self.client_train) != len(self.client_test):
            raise ValueError("client train/test list length mismatch")
        if any(len(d) == 0 for d in self.client_train):
            raise ValueError("a client has an empty training shard")
        if len(self.server_test) == 0 or len(self.server_public) == 0:
            raise ValueError("server test/public sets must be non-empty")


def build_federated_dataset(
    world: SyntheticImageDataset,
    num_clients: int,
    n_train: int,
    n_test: int,
    n_public: int,
    partitioner: Partitioner | None = None,
    alpha: float = 0.1,
    local_test_fraction: float = 0.25,
    seed: int = 0,
) -> FederatedDataset:
    """Sample a world and split it into a :class:`FederatedDataset`.

    The training corpus is partitioned with ``partitioner`` (default:
    ``DirichletPartitioner(alpha)``, the paper's setting); each client's
    shard is then split into local train/test so local evaluation sees the
    client's own skewed distribution. This is the
    :class:`~repro.data.lazy.LazyFederatedDataset` recipe with every shard
    built in one draw — byte for byte the shards a lazy federation
    materializes for any cohort.
    """
    recipe = LazyFederatedDataset(
        world, num_clients, n_train, n_test, n_public, partitioner=partitioner,
        alpha=alpha, local_test_fraction=local_test_fraction, seed=seed,
    )
    recipe.prefetch(range(recipe.num_clients))
    fed = FederatedDataset(
        client_train=list(recipe.client_train),
        client_test=list(recipe.client_test),
        server_test=recipe.server_test,
        server_public=recipe.server_public,
        num_classes=recipe.num_classes,
    )
    fed.validate()
    return fed
