"""Memoized experiment execution.

Tables 1–2 and Figures 4–6 all consume the *same* underlying runs (one per
(method, model, federation setting)); the runner caches histories by a
structural key so a bench session never repeats a run. Everything is
deterministic in the seed, so cached and fresh results are identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.core import FedKEMF, local_model_builders, plan_multi_model
from repro.data.federated import FederatedDataset, build_federated_dataset
from repro.data.lazy import LazyFederatedDataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.experiments.configs import (
    CLIENT_SETTINGS,
    Scale,
    checkpoint_defaults,
    get_scale,
    lazy_data_enabled,
    runtime_defaults,
)
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.fl.history import RunHistory
from repro.nn.models import KNOWLEDGE_DEFAULTS, build_model
from repro.nn.module import Module
from repro.utils.logging import get_logger

__all__ = ["RunKey", "ExperimentRunner"]

log = get_logger("experiments")

_DATASET_SPECS = {
    "cifar10": dict(channels=3, noise_std=0.25),
    "mnist": dict(channels=1, noise_std=0.25),
}


@dataclass(frozen=True)
class RunKey:
    """Structural identity of one FL run (the memoization key)."""

    method: str
    model: str
    dataset: str
    setting: str
    sample_ratio: float
    alpha: float
    rounds: int
    seed: int
    overrides: tuple = ()

    @staticmethod
    def make(method: str, model: str, dataset: str, setting: str, sample_ratio: float,
             alpha: float, rounds: int, seed: int, **overrides) -> "RunKey":
        return RunKey(
            method=method.lower(),
            model=model.lower(),
            dataset=dataset.lower(),
            setting=setting,
            sample_ratio=round(float(sample_ratio), 4),
            alpha=round(float(alpha), 4),
            rounds=int(rounds),
            seed=int(seed),
            overrides=tuple(sorted(overrides.items())),
        )


class ExperimentRunner:
    """Builds worlds/federations/models per the active scale and runs
    algorithms with caching.

    One instance per bench session; tests construct their own with a tiny
    scale override.
    """

    def __init__(self, scale: Scale | None = None) -> None:
        self.scale = scale or get_scale()
        self._worlds: dict[tuple, SyntheticImageDataset] = {}
        self._feds: dict[tuple, FederatedDataset] = {}
        self._runs: dict[RunKey, RunHistory] = {}

    # ------------------------------------------------------------------ #
    # data assembly
    # ------------------------------------------------------------------ #

    def image_size(self, dataset: str) -> int:
        return self.scale.mnist_image_size if dataset == "mnist" else self.scale.image_size

    def world(self, dataset: str, seed: int = 0) -> SyntheticImageDataset:
        dataset = dataset.lower()
        if dataset not in _DATASET_SPECS:
            raise KeyError(f"unknown dataset {dataset!r}; options: {sorted(_DATASET_SPECS)}")
        key = (dataset, seed)
        if key not in self._worlds:
            ds = _DATASET_SPECS[dataset]
            spec = SyntheticSpec(
                num_classes=10,
                channels=ds["channels"],
                image_size=self.image_size(dataset),
                noise_std=ds["noise_std"],
            )
            self._worlds[key] = SyntheticImageDataset(spec, seed=seed)
        return self._worlds[key]

    def fed(self, dataset: str, num_clients: int, alpha: float, seed: int = 0) -> FederatedDataset:
        # The lazy flag is part of the cache key: toggling REPRO_LAZY_DATA
        # mid-process must not hand back a stale eager federation (the two
        # are bit-identical in content, but wildly different in residency).
        lazy = lazy_data_enabled()
        key = (dataset.lower(), num_clients, round(alpha, 4), seed, lazy)
        if key not in self._feds:
            builder = LazyFederatedDataset if lazy else build_federated_dataset
            self._feds[key] = builder(
                self.world(dataset, seed),
                num_clients=num_clients,
                n_train=self.scale.n_train,
                n_test=self.scale.n_test,
                n_public=self.scale.n_public,
                alpha=alpha,
                seed=seed,
            )
        return self._feds[key]

    # ------------------------------------------------------------------ #
    # model assembly
    # ------------------------------------------------------------------ #

    def model_fn(self, name: str, dataset: str, seed: int = 1) -> Callable[[], Module]:
        """Zero-arg builder for a zoo model at the active scale."""
        dataset = dataset.lower()
        in_channels = _DATASET_SPECS[dataset]["channels"]
        image_size = self.image_size(dataset)
        width = self.scale.width_for(name)

        # a partial, not a closure: it pickles, so --workers runs ship their
        # round snapshot to the run-long pool instead of forking per round
        return functools.partial(
            build_model,
            name,
            num_classes=10,
            in_channels=in_channels,
            image_size=image_size,
            width_mult=width,
            seed=seed,
        )

    def knowledge_fn(self, dataset: str, seed: int = 2) -> Callable[[], Module]:
        """Builder for the paper's knowledge network for ``dataset``."""
        return self.model_fn(KNOWLEDGE_DEFAULTS[dataset.lower()], dataset, seed=seed)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _config(self, sample_ratio: float, rounds: int, seed: int, **overrides) -> FLConfig:
        base = FLConfig(
            rounds=rounds,
            sample_ratio=sample_ratio,
            local_epochs=self.scale.local_epochs,
            batch_size=self.scale.batch_size,
            lr=self.scale.lr,
            seed=seed,
            distill_epochs=self.scale.distill_epochs,
            distill_lr=self.scale.distill_lr,
        )
        return base.with_overrides(**overrides) if overrides else base

    @staticmethod
    def _checkpoint_kwargs(key: RunKey, suffix: str = "") -> dict:
        """Durability kwargs for one run, named uniquely by its RunKey so a
        sweep directory holds one resumable checkpoint per run."""
        kwargs = checkpoint_defaults()
        if kwargs:
            kwargs["checkpoint_name"] = (
                f"{key.method}-{key.model}-{key.dataset}-c{key.setting}-seed{key.seed}{suffix}"
            )
        return kwargs

    def run(
        self,
        method: str,
        model: str,
        dataset: str = "cifar10",
        setting: str = "30",
        sample_ratio: float | None = None,
        alpha: float | None = None,
        rounds: int | None = None,
        seed: int = 0,
        **overrides,
    ) -> RunHistory:
        """Run (or fetch) one experiment.

        ``setting`` selects the paper federation size ("30"/"50"/"100");
        ``sample_ratio`` defaults to that setting's Table 2 ratio.
        FedKEMF trains ``model`` as the on-device local model and
        communicates the dataset's default knowledge network.
        """
        setting_obj = CLIENT_SETTINGS[setting]
        sample_ratio = sample_ratio if sample_ratio is not None else setting_obj.sample_ratio
        alpha = alpha if alpha is not None else self.scale.alpha
        if rounds is None:
            rounds = self.scale.mnist_rounds if dataset.lower() == "mnist" else self.scale.rounds
        # Environment-level runtime settings (workers/faults/deadline) join
        # the overrides so they both reach the config and key the cache.
        overrides = {**runtime_defaults(), **overrides}
        key = RunKey.make(method, model, dataset, setting, sample_ratio, alpha, rounds, seed, **overrides)
        if key in self._runs:
            return self._runs[key]

        num_clients = self.scale.clients_for(setting)
        fed = self.fed(dataset, num_clients, alpha, seed=seed)
        cfg = self._config(sample_ratio, rounds, seed, **overrides)

        if key.method in ("fedkemf", "fedkd"):
            # knowledge-network algorithms: communicate the dataset's tiny
            # default network, train `model` as the on-device local model
            cls = ALGORITHM_REGISTRY.get(key.method)
            algo = cls(
                self.knowledge_fn(dataset),
                fed,
                cfg,
                local_model_fns=self.model_fn(model, dataset),
            )
        else:
            cls = ALGORITHM_REGISTRY.get(key.method)
            algo = cls(self.model_fn(model, dataset), fed, cfg)
        log.info("running %s", key)
        history = algo.run(**self._checkpoint_kwargs(key))
        history.meta.update(
            {
                "setting": setting,
                "dataset": dataset,
                "scale": self.scale.name,
                "paper_clients": setting_obj.paper_clients,
                "model_name": model,
            }
        )
        self._runs[key] = history
        return history

    def run_multi_model(
        self,
        method: str,
        setting: str = "50",
        sample_ratio: float = 0.5,
        dataset: str = "cifar10",
        alpha: float | None = None,
        rounds: int | None = None,
        seed: int = 0,
        candidates: tuple = ("resnet-20", "resnet-32", "resnet-44"),
        **overrides,
    ) -> RunHistory:
        """Table 3 runs: per-client local evaluation enabled.

        Baselines train resnet-20 everywhere (the paper's protocol: the one
        model every device can hold); FedKEMF deploys the resource-matched
        heterogeneous pool.
        """
        alpha = alpha if alpha is not None else self.scale.alpha
        rounds = rounds if rounds is not None else self.scale.rounds
        overrides = {**runtime_defaults(), **overrides}
        key = RunKey.make(
            method, "multi" if method.lower() == "fedkemf" else "resnet-20",
            dataset, setting, sample_ratio, alpha, rounds, seed,
            multi=True, **overrides,
        )
        if key in self._runs:
            return self._runs[key]

        num_clients = self.scale.clients_for(setting)
        fed = self.fed(dataset, num_clients, alpha, seed=seed)
        cfg = self._config(sample_ratio, rounds, seed, eval_local=True, **overrides)

        if key.method == "fedkemf":
            in_channels = _DATASET_SPECS[dataset.lower()]["channels"]
            image_size = self.image_size(dataset)
            width = self.scale.width_for("resnet-20")
            plan = plan_multi_model(
                num_clients,
                candidate_models=candidates,
                num_classes=10,
                in_channels=in_channels,
                image_size=image_size,
                width_mult=width,
                seed=seed,
            )
            builders = local_model_builders(
                plan, 10, in_channels, image_size, width, seed=seed
            )
            algo = FedKEMF(self.knowledge_fn(dataset), fed, cfg, local_model_fns=builders)
            meta_models = plan.count_by_model()
        else:
            cls = ALGORITHM_REGISTRY.get(key.method)
            algo = cls(self.model_fn("resnet-20", dataset), fed, cfg)
            meta_models = {"resnet-20": num_clients}
        log.info("running multi-model %s", key)
        history = algo.run(**self._checkpoint_kwargs(key, suffix="-multi"))
        history.meta.update({"setting": setting, "multi_model": meta_models, "scale": self.scale.name})
        self._runs[key] = history
        return history
