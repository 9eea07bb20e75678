"""The in-process default executor: fully batched cohorts train as bounded
stacks, everything else serially, and the run replays ``executor="serial"``
bit for bit — same ``RunHistory.fingerprint()``, same final global state
bytes (SHA-256), same on-device local models.

The default is a :class:`BatchedExecutor` with ``fully_batched_only`` set:
MLP cohorts stack (``last_round_mode == "batched"``) in stacks of at most
``MAX_STACK_WIDTH`` whose sizes differ by at most one; cnn-2 and resnet-20
cohorts, whose stacked programs loop over per-client slices, run
``"serial"`` under the default and ``"batched"`` only under an explicit
``executor="batched"``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.core import FedKEMF
from repro.data import IIDPartitioner
from repro.data.federated import build_federated_dataset
from repro.data.lazy import LazyFederatedDataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.fl.algorithms import base as base_mod
from repro.fl.algorithms.base import MAX_STACK_WIDTH, split_cohort
from repro.nn.batched import fully_batched
from repro.nn.models import build_model
from repro.runtime.executors import BatchedExecutor


def _model_fn(name, channels, seed=1):
    width = 0.125 if name == "mlp" else 0.25
    return functools.partial(
        build_model, name, num_classes=4, in_channels=channels, image_size=8,
        width_mult=width, seed=seed,
    )


@functools.lru_cache(maxsize=None)
def _fed(num_clients, channels, lazy=False):
    """IID equal shards (6 train + 2 local-test rows per client), so every
    sampled cohort shares one batch schedule and may stack whole."""
    world = SyntheticImageDataset(
        SyntheticSpec(num_classes=4, channels=channels, image_size=8, noise_std=0.25), seed=0
    )
    builder = LazyFederatedDataset if lazy else build_federated_dataset
    return builder(
        world, num_clients=num_clients, n_train=8 * num_clients, n_test=32, n_public=32,
        partitioner=IIDPartitioner(num_clients, seed=0), seed=0,
    )


def _config(**overrides):
    base = dict(
        rounds=2, sample_ratio=0.5, local_epochs=1, batch_size=4, lr=0.05, seed=0,
        distill_epochs=1,
    )
    base.update(overrides)
    return FLConfig(**base)


def _state_sha(model) -> str:
    digest = hashlib.sha256()
    for arr in model.state_dict().values():
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _run(make, executor=None):
    """``(algo, fingerprint, global state SHA-256)`` for one run."""
    algo = make(_config(executor=executor))
    history = algo.run()
    return algo, history.fingerprint(), _state_sha(algo.global_model)


def _assert_local_models_equal(a, b):
    for ma, mb in zip(a.local_models_for_eval(), b.local_models_for_eval()):
        assert _state_sha(ma) == _state_sha(mb)


class TestSplitRule:
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129, 1000])
    def test_near_equal_stacks_in_order(self, n):
        stacks = split_cohort(list(range(n)))
        sizes = [len(s) for s in stacks]
        assert len(stacks) == -(-n // MAX_STACK_WIDTH)
        assert max(sizes) <= MAX_STACK_WIDTH
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 2  # never a singleton tail
        assert [cid for s in stacks for cid in s] == list(range(n))

    def test_width_is_64(self):
        assert MAX_STACK_WIDTH == 64
        assert [len(s) for s in split_cohort(list(range(129)))] == [43, 43, 43]


class TestFullyBatched:
    @pytest.mark.parametrize(
        "name,expected", [("mlp", True), ("cnn-2", False), ("resnet-20", False), ("vgg-11", False)]
    )
    def test_model_zoo(self, name, expected):
        assert fully_batched(_model_fn(name, 3)()) is expected


class TestFedAvgMLP:
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_cohort_above_the_width_trains_as_bounded_stacks(self, lazy, monkeypatch):
        fed = _fed(260, 1, lazy)  # 130 clients per round: three stacks of 43-44

        def make(cfg):
            return ALGORITHM_REGISTRY.get("fedavg")(_model_fn("mlp", 1), fed, cfg)

        widths = []
        original = base_mod.train_stacked

        def recording(stacked, *args, **kwargs):
            widths.append(stacked.k)
            return original(stacked, *args, **kwargs)

        monkeypatch.setattr(base_mod, "train_stacked", recording)
        default, fp, sha = _run(make)
        assert isinstance(default.runtime.executor, BatchedExecutor)
        assert default.runtime.executor.last_round_mode == "batched"
        per_round = default.sampler.per_round
        assert per_round > MAX_STACK_WIDTH
        assert sum(widths) == 2 * per_round
        assert len(widths) == 2 * -(-per_round // MAX_STACK_WIDTH)
        assert max(widths) <= MAX_STACK_WIDTH and max(widths) - min(widths) <= 1

        widths.clear()
        serial, fp_serial, sha_serial = _run(make, "serial")
        assert widths == []  # the oracle never stacks
        assert (fp, sha) == (fp_serial, sha_serial)


class TestFedKEMFMLP:
    def test_knowledge_and_local_models_stack(self):
        fed = _fed(12, 1)

        def make(cfg):
            return FedKEMF(
                _model_fn("mlp", 1), fed, cfg, local_model_fns=_model_fn("mlp", 1, seed=2)
            )

        default, fp, sha = _run(make)
        assert default.runtime.executor.last_round_mode == "batched"
        serial, fp_serial, sha_serial = _run(make, "serial")
        assert (fp, sha) == (fp_serial, sha_serial)
        _assert_local_models_equal(default, serial)


class TestPerSliceProgramsStaySerial:
    """Conv cohorts are equal-shard and stackable, so only the policy keeps
    them serial under the default; explicit ``batched`` still stacks them."""

    @pytest.mark.parametrize("model", ["cnn-2", "resnet-20"])
    def test_fedavg(self, model):
        fed = _fed(6, 3)

        def make(cfg):
            return ALGORITHM_REGISTRY.get("fedavg")(_model_fn(model, 3), fed, cfg)

        runs = {kind: _run(make, kind) for kind in (None, "batched", "serial")}
        assert runs[None][0].runtime.executor.last_round_mode == "serial"
        assert runs["batched"][0].runtime.executor.last_round_mode == "batched"
        assert runs[None][1:] == runs["batched"][1:] == runs["serial"][1:]

    def test_fedkemf_mlp_knowledge_with_conv_local_models(self):
        # The knowledge network alone is fully batched; the cnn-2 local
        # models it trains beside are not, so the default declines the cohort.
        fed = _fed(6, 3)

        def make(cfg):
            return FedKEMF(
                _model_fn("mlp", 3), fed, cfg, local_model_fns=_model_fn("cnn-2", 3, seed=2)
            )

        runs = {kind: _run(make, kind) for kind in (None, "batched", "serial")}
        assert runs[None][0].runtime.executor.last_round_mode == "serial"
        assert runs["batched"][0].runtime.executor.last_round_mode == "batched"
        assert runs[None][1:] == runs["batched"][1:] == runs["serial"][1:]
        _assert_local_models_equal(runs[None][0], runs["serial"][0])
        _assert_local_models_equal(runs["batched"][0], runs["serial"][0])
