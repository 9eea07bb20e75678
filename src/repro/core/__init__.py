"""The paper's contribution: FedKEMF.

- :mod:`repro.core.mutual` — deep-mutual-learning knowledge extraction (Alg. 1)
- :mod:`repro.core.ensemble` — max/mean/vote multi-model fusion (Eq. 5)
- :mod:`repro.core.distill` — server ensemble distillation (Eq. 4)
- :mod:`repro.core.fusion` — the two fusion modes (Alg. 2 line 9–10)
- :mod:`repro.core.resource` — resource-aware multi-model deployment
- :mod:`repro.core.fedkemf` — the end-to-end algorithm
"""

from repro.core.ensemble import (
    ENSEMBLE_REGISTRY,
    EnsembleModule,
    ensemble_logits,
    ensemble_max,
    ensemble_mean,
    ensemble_vote,
)
from repro.core.distill import DistillConfig, distill_to_student, distill_from_teacher_logits
from repro.core.mutual import DeepMutualTrainer, MutualTrainStats
from repro.core.fusion import fuse_ensemble_distill, fuse_weight_average, FUSION_MODES
from repro.core.resource import MultiModelPlan, plan_multi_model, local_model_builders
from repro.core.fedkemf import FedKEMF
from repro.core.fedkd import FedKD

__all__ = [
    "ENSEMBLE_REGISTRY",
    "ensemble_logits",
    "ensemble_max",
    "ensemble_mean",
    "ensemble_vote",
    "DistillConfig",
    "distill_to_student",
    "distill_from_teacher_logits",
    "DeepMutualTrainer",
    "MutualTrainStats",
    "fuse_ensemble_distill",
    "fuse_weight_average",
    "FUSION_MODES",
    "MultiModelPlan",
    "plan_multi_model",
    "local_model_builders",
    "FedKEMF",
    "FedKD",
    "EnsembleModule",
]
