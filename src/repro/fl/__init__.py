"""Federated-learning simulation framework.

Provides the round-loop machinery shared by every algorithm: byte-exact
communication metering (:mod:`repro.fl.comm`), client sampling, local
training, evaluation metrics, run history, and device/resource profiles for
the multi-model experiments.

Algorithms live in :mod:`repro.fl.algorithms` (baselines) and
:mod:`repro.core` (FedKEMF, the paper's contribution).
"""

from repro.fl.comm import CommMeter, Channel
from repro.fl.compression import CODEC_REGISTRY, make_codec
from repro.fl.sampler import ClientSampler
from repro.fl.metrics import (
    evaluate_model,
    rounds_to_target,
    converged_round,
    average_local_accuracy,
    client_fairness_report,
)
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.trainer import LocalTrainer, TrainStats
from repro.fl.devices import DeviceProfile, DEVICE_TIERS, assign_models_by_resources
from repro.fl.latency import estimate_client_time, estimate_round_time, simulate_epoch_times
from repro.fl.checkpoint import (
    CheckpointError,
    save_history,
    load_history,
)
from repro.fl.robust import (
    DEFENSE_KINDS,
    RobustAggregator,
    confidence_member_weights,
    parse_defense,
    validate_update,
)
from repro.fl.algorithms import (
    ALGORITHM_REGISTRY,
    FLAlgorithm,
    FLConfig,
    FedAvg,
    FedProx,
    FedNova,
    Scaffold,
    FedDF,
    FedMD,
)

__all__ = [
    "CommMeter",
    "Channel",
    "CODEC_REGISTRY",
    "make_codec",
    "ClientSampler",
    "evaluate_model",
    "rounds_to_target",
    "converged_round",
    "average_local_accuracy",
    "client_fairness_report",
    "RoundRecord",
    "RunHistory",
    "LocalTrainer",
    "TrainStats",
    "DeviceProfile",
    "DEVICE_TIERS",
    "assign_models_by_resources",
    "estimate_client_time",
    "estimate_round_time",
    "simulate_epoch_times",
    "CheckpointError",
    "save_history",
    "load_history",
    "DEFENSE_KINDS",
    "RobustAggregator",
    "confidence_member_weights",
    "parse_defense",
    "validate_update",
    "ALGORITHM_REGISTRY",
    "FLAlgorithm",
    "FLConfig",
    "FedAvg",
    "FedProx",
    "FedNova",
    "Scaffold",
    "FedDF",
    "FedMD",
]
