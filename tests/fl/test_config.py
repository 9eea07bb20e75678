"""FLConfig's knob table and what the algorithm base class derives from it:
range checks, the fingerprint's execution-only exclusions, run-meta."""

import functools

import pytest

import repro.fl
import repro.fl.algorithms
import repro.fl.algorithms.base
import repro.fl.config
from repro.core.fedkemf import FedKEMF  # noqa: F401  (registers fedkemf)
from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms import ALGORITHM_REGISTRY
from repro.fl.config import FLConfig, knobs
from repro.nn.models import build_model

# One config that moves every kind of field off its default, execution-only
# knobs included (those must not reach the fingerprint).
NON_DEFAULT = dict(
    rounds=7, sample_ratio=0.5, local_epochs=1, batch_size=8, lr=0.05, seed=3,
    eval_local=True, prox_mu=0.1, distill_epochs=2, distill_temperature=2.0,
    kl_weight=0.5, ensemble="mean", compression="fp16",
    workers=3, executor="parallel", faults="dropout=0.2,signflip=0.1", deadline=30.0,
    over_provision=False, aggregation="buffered", buffer_size=2, staleness_alpha=0.25,
    max_staleness=4, defense="trimmed=0.3", norm_ceiling=50.0, max_cohort=3,
    state_residency=2,
)

# config_fingerprint() of each algorithm family at commit 7c8bf4a (PR 11),
# before the table existed: a checkpoint written then must still resume.
PARENT_FINGERPRINTS = {
    ("fedavg", "default"): "86a5f54fb1e8c293",
    ("fedavg", "non_default"): "099660c66f2ebd3c",
    ("scaffold", "default"): "371280f58d722126",
    ("scaffold", "non_default"): "86b057701d6a836a",
    ("feddf", "default"): "827edf21549ce803",
    ("feddf", "non_default"): "31f078603a995bbb",
    ("fedmd", "default"): "e21c31c5b5fbc8c8",
    ("fedmd", "non_default"): "d3e726e651999f7e",
    ("fedkemf", "default"): "3ce1821a6d11477d",
    ("fedkemf", "non_default"): "f1b067381dc1c8c4",
}


@pytest.fixture(scope="module")
def fed():
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    return build_federated_dataset(
        world, num_clients=4, n_train=64, n_test=16, n_public=16, alpha=0.5, seed=0
    )


model_fn = functools.partial(
    build_model, "mlp", num_classes=4, in_channels=1, image_size=8, width_mult=0.25, seed=1
)


def test_flconfig_is_one_class_under_every_import_path():
    for module in (repro.fl, repro.fl.algorithms, repro.fl.algorithms.base):
        assert module.FLConfig is repro.fl.config.FLConfig


class TestRangeChecks:
    @pytest.mark.parametrize("field", ["eval_batch_size", "distill_batch_size"])
    def test_zero_batch_sizes_rejected_at_construction(self, field):
        # Used as a range() step after a full round of training; before the
        # table gave them min=1 a zero only failed there.
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            FLConfig(**{field: 0})
        assert getattr(FLConfig(**{field: 1}), field) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"workers": -1},
            {"executor": "gpu"},
            {"deadline": 0.0},
            {"aggregation": "fedbuff"},
            {"buffer_size": 0},
            {"staleness_alpha": -0.5},
            {"max_staleness": -1},
            {"norm_ceiling": 0.0},
            {"max_cohort": 0},
            {"state_residency": 0},
            # checked against the ensemble registry, FUSION_MODES and the
            # codec registry; a typo used to surface mid-run or not at all
            {"ensemble": "maxx"},
            {"fusion": "avg"},
            {"compression": "q9"},
        ],
    )
    def test_runtime_knob_ranges(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            FLConfig(**bad)

    def test_optional_knobs_accept_none(self):
        for k in knobs(FLConfig):
            if k.default is None:
                assert getattr(FLConfig(**{k.name: None}), k.name) is None


class TestFingerprint:
    @pytest.mark.parametrize("name,label", sorted(PARENT_FINGERPRINTS))
    def test_matches_the_parent_commit(self, fed, name, label):
        cfg = FLConfig() if label == "default" else FLConfig(**NON_DEFAULT)
        algo = ALGORITHM_REGISTRY.get(name)(model_fn, fed, cfg)
        assert algo.config_fingerprint() == PARENT_FINGERPRINTS[name, label]

    def test_execution_only_set(self):
        assert [k.name for k in knobs(FLConfig) if k.execution_only] == [
            "workers",
            "executor",
            "state_residency",
        ]


def test_run_meta_lists_every_run_knob(fed):
    cfg = FLConfig(rounds=1, local_epochs=1, batch_size=8, max_cohort=2, over_provision=False)
    meta = ALGORITHM_REGISTRY.get("fedavg")(model_fn, fed, cfg).run().meta["runtime"]
    assert list(meta) == [k.name for k in knobs(FLConfig) if k.group]
    # resolved values where the runtime knows better than the config ...
    assert meta["executor"] == "BatchedExecutor(fully_batched_only)" and meta["workers"] == 1
    # ... the configured ones elsewhere, including the three the hand-written
    # dict had forgotten
    assert meta["max_cohort"] == 2
    assert meta["over_provision"] is False
    assert meta["state_residency"] is None
    assert meta["staleness_alpha"] == 0.5 and meta["aggregation"] == "sync"
