"""FedDF (Lin et al. 2020) — ensemble distillation for model fusion.

A strong baseline the paper builds on: clients run plain local SGD on the
*communicated* model (no knowledge network, so the full model crosses the
wire each round), and the server refines the weight average by distilling
the ensemble of uploaded client models on public data with average-logit
teachers.

FedKEMF differs by (a) communicating only the tiny knowledge network and
(b) extracting client knowledge through deep mutual learning rather than
training the communicated model directly.

The client pass is the framework default (plain local SGD through the
execution runtime); FedDF only replaces the server's aggregation.
"""

from __future__ import annotations

from repro.core.distill import DistillConfig
from repro.core.fusion import fuse_ensemble_distill
from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm
from repro.runtime.executors import ClientUpdate

__all__ = ["FedDF"]


class FedDF(FLAlgorithm):
    """FedAvg + server-side ensemble distillation."""

    name = "FedDF"

    def setup(self) -> None:
        self._distill_config = DistillConfig.from_config(self.cfg)

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        states = [u.received["state"] for u in updates]
        weights = [u.weight for u in updates]
        # FedDF's convention is average-logit teachers; honour the config
        # only if the caller explicitly changed it.
        strategy = "mean" if self.cfg.ensemble == "max" else self.cfg.ensemble
        # Under the buffered regime the base class publishes per-update
        # staleness discounts for the duration of this call; they weight
        # the ensemble teacher so stale members shape it less. None (the
        # synchronous / all-fresh case) keeps the teacher bit-identical.
        fuse_ensemble_distill(
            self.global_model,
            self._scratch,
            states,
            weights,
            public=self.fed.server_public,
            strategy=strategy,
            distill_config=self._distill_config,
            member_weights=self._staleness_discounts,
            member_filter=self._ensemble_member_filter,
        )


ALGORITHM_REGISTRY.add("feddf", FedDF)
