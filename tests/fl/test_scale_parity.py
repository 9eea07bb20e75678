"""Population scale: a lazy federation of one thousand clients, 5 %
sampled, with faults and a trimmed-mean defense live, keeps only the
cohort's shards and trainers resident.

That lazy data, spilled client state and a streamed history never change a
run is a cell of ``tests/fl/test_parity_matrix.py``.
"""

from __future__ import annotations

import functools

from repro.core.fedkemf import FedKEMF
from repro.data.lazy import LazyFederatedDataset
from repro.data.partition import IIDPartitioner
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms.base import FLConfig
from repro.fl.algorithms.fedavg import FedAvg
from repro.nn.models import build_model

NUM_CLIENTS = 1_000
SAMPLE_RATIO = 0.05  # 50-client cohorts
ROUNDS = 2


@functools.lru_cache(maxsize=None)
def _fed():
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    # two rows per client: population size dominates, every shard degenerate
    return LazyFederatedDataset(
        SyntheticImageDataset(spec, seed=0), num_clients=NUM_CLIENTS,
        n_train=2 * NUM_CLIENTS, n_test=40, n_public=32,
        partitioner=IIDPartitioner(NUM_CLIENTS, seed=0), seed=0,
    )


def _algo(cls):
    model_fn = functools.partial(
        build_model, "mlp", num_classes=4, in_channels=1, image_size=8,
        width_mult=0.25, seed=1,
    )
    cfg = FLConfig(
        rounds=ROUNDS, sample_ratio=SAMPLE_RATIO, local_epochs=1, batch_size=2,
        lr=0.05, seed=1, faults="dropout=0.2,loss=0.1", defense="trimmed=0.2",
        distill_epochs=1,
    )
    return cls(model_fn, _fed(), cfg)


class TestLazyResidencyDuringRun:
    def test_resident_shards_bounded_by_cohort(self):
        import math

        algo = _algo(FedAvg)
        algo.run()
        # the dropout fault over-provisions the sample: resident shards are
        # bounded by the provisioned cohort, never the population
        provisioned = math.ceil(algo.sampler.per_round / (1.0 - 0.2))
        assert len(algo.fed.resident_clients()) <= provisioned + 1
        assert len(algo.fed.resident_clients()) < NUM_CLIENTS // 10

    def test_fedkemf_trainer_bank_bounded_by_cohort(self):
        """FedKEMF's deep-mutual trainers live in the base class's one bank,
        so the base cohort-retention hook is what stops them pinning
        evicted shards: after the last round only its cohort is cached."""
        algo = _algo(FedKEMF)
        algo.run()
        cached = algo.trainers.cached_clients()
        assert cached and set(cached) <= set(algo.select_clients(ROUNDS - 1))
