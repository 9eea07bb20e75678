"""Resource-aware multi-model assembly.

Builds the heterogeneous per-client model pool for the multi-model FL
experiment (Table 3): each client gets the largest zoo model its simulated
device profile can hold, and FedKEMF trains them all in one federation
because only the shared knowledge network crosses the wire.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.fl.devices import DeviceProfile, assign_models_by_resources, sample_device_profiles
from repro.nn.models.factory import build_model, model_payload_mb
from repro.nn.module import Module

__all__ = ["MultiModelPlan", "plan_multi_model", "local_model_builders"]


@dataclass
class MultiModelPlan:
    """Resolved heterogeneous deployment.

    Attributes
    ----------
    profiles:
        Per-client simulated device profiles.
    assignment:
        Per-client model architecture names.
    sizes_mb:
        Candidate model name → fp32 payload MB.
    """

    profiles: list[DeviceProfile]
    assignment: list[str]
    sizes_mb: dict[str, float]

    def count_by_model(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name in self.assignment:
            out[name] = out.get(name, 0) + 1
        return out


def plan_multi_model(
    num_clients: int,
    candidate_models: "tuple[str, ...]" = ("resnet-20", "resnet-32", "resnet-44"),
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 32,
    width_mult: float = 1.0,
    seed: int = 0,
    memory_scale: float = 1.0,
) -> MultiModelPlan:
    """Sample device profiles and assign each client a fitting model.

    ``memory_scale`` rescales the tier memory budgets so scaled-down zoo
    models (width_mult < 1) still map onto all three tiers; it defaults to
    auto-scaling by the largest candidate's size when width_mult != 1.
    """
    sizes = {
        name: model_payload_mb(
            build_model(name, num_classes, in_channels, image_size, width_mult, seed=0)
        )
        for name in candidate_models
    }
    if memory_scale == 1.0 and width_mult != 1.0:
        # Keep the tier/model fit pattern of the paper-scale configuration.
        paper_sizes = {
            name: model_payload_mb(
                build_model(name, num_classes, in_channels, 32, 1.0, seed=0)
            )
            for name in candidate_models
        }
        memory_scale = max(sizes.values()) / max(paper_sizes.values())
    profiles = [
        DeviceProfile(p.name, p.memory_mb * memory_scale, p.compute_gflops)
        for p in sample_device_profiles(num_clients, seed=seed)
    ]
    assignment = assign_models_by_resources(profiles, sizes)
    return MultiModelPlan(profiles=profiles, assignment=assignment, sizes_mb=sizes)


def local_model_builders(
    plan: MultiModelPlan,
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 32,
    width_mult: float = 1.0,
    seed: int = 0,
) -> "list[Callable[[], Module]]":
    """One zero-arg builder per client, honouring the plan's assignment.
    Each is a ``functools.partial`` over :func:`build_model`, so the
    algorithm holding them pickles and its rounds ship to a run-long pool."""
    return [
        functools.partial(
            build_model, name, num_classes, in_channels, image_size, width_mult,
            seed=seed * 1009 + i,
        )
        for i, name in enumerate(plan.assignment)
    ]
