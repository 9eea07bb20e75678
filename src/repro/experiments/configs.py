"""Scale profiles and canonical experiment settings.

The paper's evaluation runs 200–400 communication rounds of full-width
models on CIFAR-10/MNIST — days of single-core NumPy compute. The harness
therefore defines three *scales* with identical structure:

- ``smoke``  (default): 8×8 images, width-multiplied models, 6–10 clients,
  ≤ 18 rounds. Every ordering/ratio claim is checked here; absolute
  accuracies are lower than the paper's.
- ``small``: 16×16, half-width, more clients/rounds — closer shapes,
  minutes per run.
- ``paper``: the full configuration (32×32, width 1.0, 30/100 clients,
  200 rounds) for anyone with the patience; selected via ``REPRO_SCALE``.

Every mapping (client counts, target accuracies) keeps the paper's axes so
tables render with the paper's row structure at any scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.fl.config import SCALE_GROUP, FLConfig, Knob, knob, knobs

__all__ = [
    "Scale",
    "SCALES",
    "get_scale",
    "ClientSetting",
    "CLIENT_SETTINGS",
    "scaled_clients",
    "scaled_target",
    "RunOptions",
    "RUN_KNOBS",
    "runtime_defaults",
    "lazy_data_enabled",
    "checkpoint_defaults",
]


@dataclass(frozen=True)
class ClientSetting:
    """One of the paper's three federation sizes.

    ``key`` is the paper's client count ("30", "50", "100"); per-scale
    client counts come from :class:`Scale`.
    """

    key: str
    paper_clients: int
    sample_ratio: float  # Table 2's per-setting ratio
    paper_target: float  # Table 1's per-setting target accuracy


# The paper's three federation scales with their Table 1 targets and
# Table 2 sample ratios.
CLIENT_SETTINGS: dict[str, ClientSetting] = {
    "30": ClientSetting("30", 30, 0.4, 0.65),
    "50": ClientSetting("50", 50, 0.7, 0.57),
    "100": ClientSetting("100", 100, 0.5, 0.60),
}


@dataclass(frozen=True)
class Scale:
    """One resolution of the full experiment grid."""

    name: str
    image_size: int
    mnist_image_size: int
    width_mult: dict = field(default_factory=dict)  # model family → multiplier
    n_train: int = 800
    n_test: int = 200
    n_public: int = 300
    rounds: int = 16
    mnist_rounds: int = 10
    local_epochs: int = 2
    batch_size: int = 20
    lr: float = 0.02
    alpha: float = 0.3  # Dirichlet concentration (paper: 0.1)
    clients: dict = field(default_factory=dict)  # setting key → client count
    targets: dict = field(default_factory=dict)  # setting key → target accuracy
    distill_epochs: int = 1
    distill_lr: float = 1e-3

    def width_for(self, model_name: str) -> float:
        fam = model_name.split("-")[0].lower()
        return self.width_mult.get(fam, 1.0)

    def clients_for(self, setting_key: str) -> int:
        return self.clients[setting_key]

    def target_for(self, setting_key: str) -> float:
        return self.targets[setting_key]


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        image_size=8,
        mnist_image_size=8,
        width_mult={"resnet": 0.25, "vgg": 0.125, "cnn": 0.25, "mlp": 0.25},
        n_train=1000,
        n_test=200,
        n_public=300,
        rounds=20,
        mnist_rounds=12,
        local_epochs=2,
        batch_size=20,
        lr=0.02,
        alpha=0.3,
        clients={"30": 10, "50": 12, "100": 14},
        targets={"30": 0.32, "50": 0.28, "100": 0.30},
    ),
    "small": Scale(
        name="small",
        image_size=16,
        mnist_image_size=14,
        width_mult={"resnet": 0.5, "vgg": 0.25, "cnn": 0.5, "mlp": 0.5},
        n_train=2400,
        n_test=600,
        n_public=800,
        rounds=40,
        mnist_rounds=20,
        local_epochs=2,
        batch_size=32,
        lr=0.02,
        alpha=0.2,
        clients={"30": 10, "50": 14, "100": 20},
        targets={"30": 0.55, "50": 0.48, "100": 0.50},
    ),
    "paper": Scale(
        name="paper",
        image_size=32,
        mnist_image_size=28,
        width_mult={"resnet": 1.0, "vgg": 1.0, "cnn": 1.0, "mlp": 1.0},
        n_train=50000,
        n_test=10000,
        n_public=10000,
        rounds=200,
        mnist_rounds=100,
        local_epochs=2,
        batch_size=64,
        lr=0.02,
        alpha=0.1,
        clients={"30": 30, "50": 50, "100": 100},
        targets={"30": 0.65, "50": 0.57, "100": 0.60},
    ),
}


def get_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name or the ``REPRO_SCALE`` env var (default smoke)."""
    name = name or os.environ.get("REPRO_SCALE", "smoke")
    key = name.strip().lower()
    if key not in SCALES:
        raise KeyError(f"unknown scale {name!r}; options: {sorted(SCALES)}")
    return SCALES[key]


def scaled_clients(setting_key: str, scale: Scale | None = None) -> int:
    """Client count for a paper setting at the active scale."""
    return (scale or get_scale()).clients_for(setting_key)


def scaled_target(setting_key: str, scale: Scale | None = None) -> float:
    """Target accuracy for a paper setting at the active scale."""
    return (scale or get_scale()).target_for(setting_key)


_DURABILITY = "durability (checkpoint / resume)"


@dataclass(frozen=True)
class RunOptions:
    """The run-level knobs that are not :class:`FLConfig` fields, declared
    with the same record: the federation builder switch and the durability
    keyword arguments of :meth:`repro.fl.algorithms.FLAlgorithm.run`."""

    lazy_data: bool = knob(
        False,
        "build federations lazily: client shards materialize on demand, one "
        "round's cohort at a time, bit-identical to the eager builder",
        env="REPRO_LAZY_DATA", flag="--lazy-data", group=SCALE_GROUP,
        execution_only=True,
    )
    checkpoint_dir: str | None = knob(
        None,
        "snapshot complete run state here every --checkpoint-every rounds "
        "(unset = no checkpointing)",
        env="REPRO_CHECKPOINT_DIR", flag="--checkpoint-dir", group=_DURABILITY,
        execution_only=True, verbatim=True,
    )
    checkpoint_every: int = knob(
        1,
        "checkpoint cadence in rounds",
        env="REPRO_CHECKPOINT_EVERY", flag="--checkpoint-every", group=_DURABILITY,
        execution_only=True,
    )
    resume_from: bool = knob(
        False,
        "continue each run from its checkpoint in --checkpoint-dir when one "
        "exists (bit-identical replay); runs without one start fresh",
        env="REPRO_RESUME", flag="--resume", group=_DURABILITY, execution_only=True,
    )


# Every run knob (the algorithm hyperparameters have no group), in the order
# the CLI registers them and the README lists them.
RUN_KNOBS: "tuple[Knob, ...]" = tuple(
    k for k in knobs(FLConfig) + knobs(RunOptions) if k.group
)


def _env_overrides(cls: type) -> dict:
    """``{field: parsed value}`` for each of ``cls``'s knobs whose
    environment variable is set and non-empty."""
    out: dict = {}
    for k in knobs(cls):
        raw = os.environ.get(k.env) if k.env else None
        if raw:
            out[k.name] = k.parse(raw)
    return out


def runtime_defaults() -> dict:
    """:class:`FLConfig` overrides from the environment.

    Each knob's ``REPRO_*`` variable (the table in
    :mod:`repro.fl.config` names them) is parsed by the field's type and
    keyed by the field's name. The CLI's flags set these variables so one
    invocation configures every run it spawns. Unset variables are
    omitted, leaving the config defaults in force.
    """
    return _env_overrides(FLConfig)


def lazy_data_enabled() -> bool:
    """Whether federations should be built lazily (``REPRO_LAZY_DATA``).

    Lazy and eager builders produce bit-identical client shards
    (property-tested), so this toggles memory behavior, never results.
    """
    return _env_overrides(RunOptions).get("lazy_data", False)


def checkpoint_defaults() -> dict:
    """Durability keyword arguments for
    :meth:`repro.fl.algorithms.FLAlgorithm.run` from the environment.

    Returns ``{}`` when no checkpoint directory is configured —
    durability is strictly opt-in, and a cadence or a resume request
    without a directory means nothing.
    """
    out = _env_overrides(RunOptions)
    out.pop("lazy_data", None)  # the one RunOptions knob run() does not take
    return out if "checkpoint_dir" in out else {}
