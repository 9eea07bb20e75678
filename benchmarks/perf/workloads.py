"""The four benchmark workloads, as one declarative table plus one builder.

``--seed`` draws the data: every training, test and public sample (and, with
the labels, the size of each client's shard). Everything else is the workload
and is pinned by ``TASK_SEED``: the synthetic world's class prototypes, every
model's initial weights, the partitioner's client proportions, and
``FLConfig.seed`` — the per-round cohorts, the mini-batch orders and the
server's distillation order. Seeds are then exchangeable replicas of one
workload. With a per-seed world, task difficulty alone moved final accuracy
by ±30 % and the target-crossing round by ±40 %; with per-seed cohorts over
Dirichlet shards, the work per round moved ``rounds_per_s`` by ±10 % and
peak RSS by ±7 % — all far outside a usable regression bound.

Sizes are calibrated on a 2-core x86 host (BLAS pinned to one thread) so one
``algo.run()`` takes about ``REFERENCE_SECONDS``; ``rounds_for`` scales the
round count with ``--seconds``, so a shorter budget runs a prefix of the same
trajectory.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Workload", "WORKLOADS", "REFERENCE_SECONDS", "TASK_SEED", "fl_config", "build", "describe",
]

REFERENCE_SECONDS = 20
TASK_SEED = 0  # everything but the data draw (see module doc)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str  # ALGORITHM_REGISTRY key
    rounds: int  # at REFERENCE_SECONDS
    # (RoundRecord field, threshold): "accuracy" is crossed upwards, "loss"
    # downwards. Calibrated at `rounds`; a shorter run may never reach it.
    target: "tuple[str, float]"
    world: "dict[str, Any]"  # SyntheticSpec fields
    num_clients: int
    samples_per_client: int
    n_test: int
    n_public: int
    partition: "tuple[str, float] | tuple[str]"  # ("iid",) | ("dirichlet", alpha)
    model: "tuple[str, dict[str, Any]]"  # the communicated model
    config: "dict[str, Any]"  # FLConfig fields (rounds and seed are filled in)
    local_models: "tuple[tuple[str, dict[str, Any]], ...]" = ()  # FedKEMF, round-robin
    lazy: bool = False  # LazyFederatedDataset + streamed history
    all_batched: bool = False  # every round must run fully stacked

    def rounds_for(self, seconds: float) -> int:
        return max(2, round(self.rounds * seconds / REFERENCE_SECONDS))


_IMAGE = {"num_classes": 10, "in_channels": 3, "image_size": 16}
_WORLD_16 = {"num_classes": 10, "channels": 3, "image_size": 16}

WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload(
            name="kemf_conv",
            why="FedKEMF multi-model: client-side deep mutual learning through the conv "
            "kernels carries the run, so nn.functional, nn.optim and core.mutual changes show here",
            algorithm="fedkemf",
            rounds=8,
            target=("loss", 0.93),
            world={**_WORLD_16, "noise_std": 0.05, "prototypes_per_class": 1, "shift_max": 0},
            num_clients=12,
            samples_per_client=64,
            n_test=256,
            n_public=96,
            partition=("dirichlet", 5.0),
            model=("resnet-20", {**_IMAGE, "width_mult": 0.25}),
            local_models=tuple(
                (name, {**_IMAGE, "width_mult": 0.25})
                for name in ("resnet-20", "resnet-32", "resnet-44")
            ),
            config={
                "sample_ratio": 0.5, "local_epochs": 2, "batch_size": 32, "lr": 0.05,
                "distill_epochs": 1,
            },
        ),
        Workload(
            name="kemf_fusion",
            why="FedKEMF at full participation: server fusion (member teacher forward, student "
            "distillation) carries the run, so core.ensemble, core.distill and core.fusion "
            "changes show here",
            algorithm="fedkemf",
            rounds=8,
            target=("loss", 0.67),
            world={**_WORLD_16, "noise_std": 0.35, "prototypes_per_class": 2, "shift_max": 1},
            num_clients=16,
            samples_per_client=64,
            n_test=512,
            n_public=256,
            partition=("iid",),
            model=("cnn-2", {**_IMAGE, "width_mult": 0.25}),
            local_models=(("mlp", {**_IMAGE, "width_mult": 0.5}),),
            config={
                "sample_ratio": 1.0, "local_epochs": 1, "batch_size": 32, "lr": 0.05,
                "distill_epochs": 2,
            },
        ),
        Workload(
            name="fedavg_population",
            why="FedAvg over a lazy 50k-client population with a tiny MLP: arithmetic is "
            "negligible, so prefetch, payload, channel, validation and averaging carry the "
            "run and base.round() refactors show here",
            algorithm="fedavg",
            rounds=24,
            target=("loss", 2.08),
            world={"num_classes": 10, "channels": 1, "image_size": 8, "noise_std": 0.25},
            num_clients=50_000,
            samples_per_client=8,
            n_test=4096,
            n_public=64,
            partition=("iid",),
            model=("mlp", {"num_classes": 10, "in_channels": 1, "image_size": 8,
                           "width_mult": 0.125}),
            config={"sample_ratio": 0.02, "local_epochs": 1, "batch_size": 2, "lr": 0.3},
            lazy=True,
        ),
        Workload(
            name="fedavg_batched_conv",
            why="FedAvg under executor=batched: the conv kernels of kemf_conv reached through "
            "nn.batched's stacked path, so a change that helps one path and costs the other "
            "is visible",
            algorithm="fedavg",
            rounds=24,
            target=("loss", 0.3),
            world={**_WORLD_16, "noise_std": 0.35},
            num_clients=16,
            samples_per_client=128,
            n_test=256,
            n_public=64,
            partition=("iid",),
            model=("cnn-2", {**_IMAGE, "width_mult": 0.5}),
            config={
                "sample_ratio": 0.5, "local_epochs": 1, "batch_size": 16, "lr": 0.005,
                "executor": "batched",
            },
            all_batched=True,
        ),
    )
}


def fl_config(workload: Workload, rounds: int) -> Any:
    """The workload's full ``FLConfig`` (its seed is the pinned task seed)."""
    from repro.fl.algorithms import FLConfig

    return FLConfig(rounds=rounds, seed=TASK_SEED, **workload.config)


def build(
    workload: Workload, seed: int, rounds: int, workdir: pathlib.Path
) -> "tuple[Any, dict[str, Any]]":
    """World, federation and algorithm for one (workload, seed) pair, as
    ``(algo, run_kwargs)`` ready for ``algo.run(**run_kwargs)``."""
    from repro.data.federated import build_federated_dataset
    from repro.data.lazy import LazyFederatedDataset
    from repro.data.partition import DirichletPartitioner, IIDPartitioner
    from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
    from repro.fl.algorithms import ALGORITHM_REGISTRY
    from repro.nn.models import build_model

    world = SyntheticImageDataset(SyntheticSpec(**workload.world), seed=TASK_SEED)
    n = workload.num_clients
    if workload.partition[0] == "dirichlet":
        partitioner = DirichletPartitioner(n, alpha=workload.partition[1], seed=TASK_SEED)
    else:
        partitioner = IIDPartitioner(n, seed=TASK_SEED)
    make_fed = LazyFederatedDataset if workload.lazy else build_federated_dataset
    fed = make_fed(
        world,
        num_clients=n,
        n_train=n * workload.samples_per_client,
        n_test=workload.n_test,
        n_public=workload.n_public,
        partitioner=partitioner,
        seed=seed,
    )
    config = fl_config(workload, rounds)

    # partial(build_model, ...) rather than a lambda: the algorithm must
    # pickle for the executors.snapshot_* probe, as it must for the pool.
    def model_fn(spec: "tuple[str, dict[str, Any]]", init_seed: int):
        return functools.partial(build_model, spec[0], seed=init_seed, **spec[1])

    kwargs: "dict[str, Any]" = {}
    if workload.local_models:
        kwargs["local_model_fns"] = [
            model_fn(workload.local_models[cid % len(workload.local_models)], TASK_SEED + 10 + cid)
            for cid in range(n)
        ]
    algo = ALGORITHM_REGISTRY.get(workload.algorithm)(
        model_fn(workload.model, TASK_SEED + 1), fed, config, **kwargs
    )
    run_kwargs: "dict[str, Any]" = {}
    if workload.lazy:
        run_kwargs["history_stream"] = workdir / "history.jsonl"
    return algo, run_kwargs


def describe(workload: Workload, seed: int, rounds: int) -> "dict[str, Any]":
    """The configuration that travels with every number of this workload."""
    out = dataclasses.asdict(workload)
    out["config"] = dataclasses.asdict(fl_config(workload, rounds))
    out["seed"] = seed
    out["task_seed"] = TASK_SEED
    return out
