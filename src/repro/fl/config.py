"""The run-knob table: :class:`FLConfig` and the helper it is declared with.

Every knob is written once, as a dataclass field built by :func:`knob`
(default plus the metadata of a :class:`Knob`). Everything else that used
to repeat the list is a loop over :func:`knobs`: the range checks in
``FLConfig.__post_init__``, ``runtime_defaults()`` and the CLI's flags and
environment exports (:mod:`repro.experiments`), the execution-only set that
``FLAlgorithm.config_fingerprint()`` excludes, ``history.meta["runtime"]``
and the registry's fingerprint check (``tests/fl/test_registry_contract.py``).
The run-level knobs that are not
``FLConfig`` fields use the same record in :mod:`repro.experiments.configs`.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, replace

from repro.fl.robust import parse_defense
from repro.runtime.async_server import AGGREGATION_KINDS
from repro.runtime.executors import EXECUTOR_KINDS
from repro.runtime.faults import parse_fault_spec

__all__ = ["FLConfig", "Knob", "knob", "knobs"]

_TRUE = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class Knob:
    """One knob's declaration. ``name``, ``type`` and ``default`` come from
    the dataclass field; the rest is the metadata :func:`knob` attached."""

    name: str
    type: type
    default: object
    help: str = ""
    env: str | None = None  # the REPRO_* variable
    flag: str | None = None  # the experiments-CLI flag
    group: str | None = None  # CLI / README section; None = algorithm hyperparameter
    execution_only: bool = False  # cannot change a trajectory: not fingerprinted
    min: float | None = None  # value >= min
    above: float | None = None  # value > above
    max: float | None = None  # value <= max
    choices: tuple[str, ...] | None = None
    verbatim: bool = False  # string taken as written (default: stripped, lower-cased)
    example: str | None = None  # a valid non-default value of a free-form string

    def parse(self, raw: str) -> object:
        """The value an environment string stands for."""
        if self.type is bool:
            return raw.strip().lower() in _TRUE
        if self.type is str:
            return raw if self.verbatim else raw.strip().lower()
        return self.type(raw)

    def check(self, value: object) -> None:
        """Raise ``ValueError`` when ``value`` is outside the declared range
        (``None`` — "unset" on the optional knobs — always passes)."""
        if value is None:
            return
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{self.name} must be one of {self.choices}; got {value!r}")
        if self.min is not None and value < self.min:
            raise ValueError(f"{self.name} must be >= {self.min}; got {value}")
        if self.above is not None and value <= self.above:
            raise ValueError(f"{self.name} must be > {self.above}; got {value}")
        if self.max is not None and value > self.max:
            raise ValueError(f"{self.name} must be <= {self.max}; got {value}")


def knob(default: object, help: str = "", **meta: object):
    """A dataclass field carrying a :class:`Knob`'s metadata."""
    return dataclasses.field(default=default, metadata={"help": help, **meta})


@functools.lru_cache(maxsize=None)
def knobs(cls: type) -> "tuple[Knob, ...]":
    """The knob table of a dataclass declared with :func:`knob`, in field
    order."""
    hints = typing.get_type_hints(cls)
    table = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]  # ``T`` or ``T | None``
        kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        table.append(Knob(name=f.name, type=kind, default=f.default, **f.metadata))
    return tuple(table)


RUNTIME_GROUP = "execution runtime"
SCALE_GROUP = "population scale"


@dataclass(frozen=True)
class FLConfig:
    """Hyperparameters shared by all FL algorithms.

    Defaults follow the non-IID benchmark conventions (Li et al. 2021) that
    the paper adopts; experiment presets override per table/figure.
    """

    rounds: int = knob(20, min=1)
    sample_ratio: float = knob(0.4, above=0.0, max=1.0)
    local_epochs: int = knob(2, min=1)
    batch_size: int = knob(32, min=1)
    lr: float = knob(0.02, above=0.0)
    momentum: float = knob(0.9)
    weight_decay: float = knob(0.0)
    eval_batch_size: int = knob(256, min=1)
    seed: int = knob(0)
    eval_local: bool = knob(False)  # also track average local accuracy (Table 3)
    # algorithm-specific knobs (ignored by algorithms that don't use them)
    prox_mu: float = knob(0.01, min=0.0)  # FedProx proximal strength
    server_lr: float = knob(1.0)  # SCAFFOLD/FedNova global step size
    distill_epochs: int = knob(1)  # server distillation epochs (FedDF / FedKEMF)
    distill_lr: float = knob(1e-3, above=0.0)
    distill_batch_size: int = knob(64, min=1)
    distill_temperature: float = knob(1.0)
    distill_init_from_average: bool = knob(True)  # FedDF-style warm start
    kl_weight: float = knob(1.0, min=0.0)  # DML coupling strength (FedKEMF ablation)
    ensemble: str = knob("max", example="mean")  # max | mean | vote (paper §Ensemble Knowledge)
    fusion: str = knob("ensemble-distill", example="weight-average")
    compression: str | None = knob(None, example="fp16")  # wire codec: fp16 | q8 | q4
    # execution runtime (repro.runtime)
    workers: int = knob(
        0,
        "process-parallel client execution (0/1 = in process)",
        env="REPRO_WORKERS", flag="--workers", group=RUNTIME_GROUP, execution_only=True, min=0,
    )
    executor: str | None = knob(
        None,
        "executor backend: serial (the reference loop), parallel (the worker pool) "
        "or batched (homogeneous cohorts, conv models too, train as one stacked "
        "program); unset = the pool for --workers >= 2, else batched for fully "
        "batched (MLP) cohorts only",
        env="REPRO_EXECUTOR", flag="--executor", group=RUNTIME_GROUP, execution_only=True,
        choices=EXECUTOR_KINDS,
    )
    faults: str | None = knob(
        None,
        "fault injection spec; mixes infrastructure and Byzantine attack keys "
        "('signflip=0.2,scale=10@0.1')",
        env="REPRO_FAULTS", flag="--faults", group=RUNTIME_GROUP, verbatim=True,
        example="dropout=0.3,loss=0.1",
    )
    deadline: float | None = knob(
        None,
        "virtual-clock round deadline in seconds",
        env="REPRO_DEADLINE", flag="--deadline", group=RUNTIME_GROUP, above=0.0,
    )
    over_provision: bool = knob(
        True, "sample ceil(K/(1-dropout)) clients when dropout > 0", group=RUNTIME_GROUP
    )
    aggregation: str = knob(
        "sync",
        "server aggregation regime: sync (classic rounds) or buffered "
        "(FedBuff-style staleness-weighted merges)",
        env="REPRO_AGGREGATION", flag="--aggregation", group=RUNTIME_GROUP,
        choices=AGGREGATION_KINDS,
    )
    buffer_size: int | None = knob(
        None,
        "buffered: merge after this many arrivals (unset = the per-round cohort size)",
        env="REPRO_BUFFER_SIZE", flag="--buffer-size", group=RUNTIME_GROUP, min=1,
    )
    staleness_alpha: float = knob(
        0.5,
        "buffered: staleness discount exponent in w(s)=1/(1+s)^alpha (0 = uniform)",
        env="REPRO_STALENESS_ALPHA", flag="--staleness-alpha", group=RUNTIME_GROUP, min=0.0,
    )
    max_staleness: int | None = knob(
        None,
        "buffered: evict updates staler than this many server versions (unset = never)",
        env="REPRO_MAX_STALENESS", flag="--max-staleness", group=RUNTIME_GROUP, min=0,
    )
    # Byzantine robustness (repro.fl.robust)
    defense: str | None = knob(
        None,
        "robust server aggregation: mean | clip[=tau] | autoclip | trimmed[=beta] "
        "| median | krum[=f] (unset = plain averaging)",
        env="REPRO_DEFENSE", flag="--defense", group=RUNTIME_GROUP, example="trimmed=0.3",
    )
    norm_ceiling: float | None = knob(
        None,
        "server-boundary gate: reject client updates whose L2 delta from the "
        "global model exceeds this norm",
        env="REPRO_NORM_CEILING", flag="--norm-ceiling", group=RUNTIME_GROUP, above=0.0,
    )
    # population scale (repro.data.lazy / repro.fl.state_store)
    max_cohort: int | None = knob(
        None,
        "hard cap on the per-round cohort regardless of population size "
        "(trajectory-shaping; unset = uncapped)",
        env="REPRO_MAX_COHORT", flag="--max-cohort", group=SCALE_GROUP, min=1,
    )
    state_residency: int | None = knob(
        None,
        "per-client state kept in RAM; the excess spills to disk",
        env="REPRO_STATE_RESIDENCY", group=SCALE_GROUP, execution_only=True, min=1,
    )

    def __post_init__(self) -> None:
        for k in knobs(type(self)):
            k.check(getattr(self, k.name))
        parse_fault_spec(self.faults)  # raises on a malformed spec string
        parse_defense(self.defense)  # raises on a malformed defense spec

    def with_overrides(self, **kwargs) -> "FLConfig":
        """Functional update (configs are frozen; revalidates)."""
        return replace(self, **kwargs)
