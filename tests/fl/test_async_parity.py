"""Buffered-aggregation regime: staleness behaviour and parent-captured
trajectories.

A *small* buffer genuinely changes the trajectory (updates land stale),
records staleness histograms and buffer occupancy, and evicts updates
beyond ``max_staleness`` as ``"stale-evicted"`` failures. That a buffer as
large as the cohort with ``staleness_alpha = 0`` replays the synchronous
run bit for bit (DESIGN.md §10) is the ``degenerate`` regime of
``tests/fl/test_parity_matrix.py``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.data import IIDPartitioner
from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms import ALGORITHM_REGISTRY
from repro.fl.algorithms.base import FLConfig
from repro.fl.algorithms.fedavg import FedAvg
from repro.nn.models import build_model
from repro.runtime.runtime import STALE_EVICTED

ROUNDS = 4
# Straggler-heavy plan: no dropout, so slow updates *arrive* (late) instead
# of disappearing — the interesting case for a buffer.
FAULTS = "slowdown=6,straggler=0.4"


@pytest.fixture(scope="module")
def fed():
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    return build_federated_dataset(
        world, num_clients=6, n_train=240, n_test=60, n_public=60, alpha=0.5, seed=0
    )


@pytest.fixture(scope="module")
def model_fn():
    return functools.partial(
        build_model, "mlp", num_classes=4, in_channels=1, image_size=8,
        width_mult=0.25, seed=1,
    )


def make_cfg(**overrides) -> FLConfig:
    base = dict(
        rounds=ROUNDS, sample_ratio=0.5, local_epochs=1, batch_size=16,
        seed=1, over_provision=False, distill_epochs=1,
    )
    base.update(overrides)
    return FLConfig(**base)


class TestRegimeRecords:
    def test_sync_records_trivial_staleness(self, fed, model_fn):
        history = FedAvg(model_fn, fed, make_cfg(faults=FAULTS)).run()
        for r in history.records:
            assert set(r.staleness) <= {0}
            assert r.buffer_len == 0
        assert list(history.buffer_occupancy) == [0] * ROUNDS

    def test_runtime_meta_records_the_regime(self, fed, model_fn):
        algo = FedAvg(model_fn, fed, make_cfg())
        meta = algo.run().meta["runtime"]
        assert meta["aggregation"] == "sync"
        cohort = algo.sampler.per_round
        buf = FedAvg(
            model_fn,
            fed,
            make_cfg(aggregation="buffered", buffer_size=cohort, staleness_alpha=0.5),
        )
        meta = buf.run().meta["runtime"]
        assert meta["aggregation"] == "buffered"
        assert meta["buffer_size"] == cohort
        assert meta["staleness_alpha"] == 0.5


class TestSmallBuffer:
    def run_buffered(self, fed, model_fn, **overrides):
        base = dict(
            aggregation="buffered", buffer_size=1, staleness_alpha=0.5,
            faults=FAULTS,
        )
        base.update(overrides)
        algo = FedAvg(model_fn, fed, make_cfg(**base))
        return algo, algo.run()

    def test_staleness_accumulates_and_trajectory_diverges(self, fed, model_fn):
        sync = FedAvg(model_fn, fed, make_cfg(faults=FAULTS)).run()
        algo, buffered = self.run_buffered(fed, model_fn)
        # straggler updates landed in later server versions ...
        hist = buffered.staleness_histogram()
        assert any(s > 0 for s in hist)
        # ... the backlog was visible mid-run ...
        assert any(n > 0 for n in buffered.buffer_occupancy[:-1])
        # ... and discounted stale fusion is a genuinely different trajectory.
        assert buffered.fingerprint() != sync.fingerprint()

    def test_end_of_run_flush_empties_the_buffer(self, fed, model_fn):
        algo, buffered = self.run_buffered(fed, model_fn)
        assert len(algo._update_buffer) == 0
        assert buffered.records[-1].buffer_len == 0
        # every merged update is accounted for in the histogram, and each
        # round's participation count matches its staleness entries
        for r in buffered.records:
            assert r.num_selected == sum(r.staleness.values())
        merged = sum(buffered.staleness_histogram().values())
        assert merged == sum(r.num_selected for r in buffered.records)

    def test_max_staleness_evicts_and_records(self, fed, model_fn):
        algo, buffered = self.run_buffered(fed, model_fn, max_staleness=0)
        counts = buffered.total_failures()
        assert counts.get(STALE_EVICTED, 0) > 0
        # nothing stale was merged: the bound actually gated fusion
        assert set(buffered.staleness_histogram()) <= {0}

    def test_alpha_zero_small_buffer_still_merges_uniformly(self, fed, model_fn):
        """alpha = 0 with a small buffer is NOT the sync run (updates land
        late) but every merge keeps full weight — the staleness histogram
        shows lag while the discount stays 1.0 (exercised through the
        all-fresh fast path never firing yet weights staying uniform)."""
        _, a = self.run_buffered(fed, model_fn, staleness_alpha=0.0)
        _, b = self.run_buffered(fed, model_fn, staleness_alpha=2.0)
        assert any(s > 0 for s in a.staleness_histogram())
        # same arrivals, different discounts ⇒ different trajectories
        assert a.fingerprint() != b.fingerprint()


# --- parent-captured trajectories ------------------------------------- #
# Every cell was recorded at the commit *before* the sync tail and
# ``_buffered_step`` were merged into one accept→merge step, so a literal
# that moves means the merged tail changed a trajectory. The
# ``sync-labelflip`` cells were recorded at the commit before FedKEMF's
# deep-mutual trainers moved into the base class's trainer bank and
# ``_client_trainer``: they pin the flipped-label clone for all its users.

MATRIX_FAULTS = "dropout=0.3,slowdown=10,straggler=0.4,loss=0.1"
# seed 3 on the 6-client federation: over-provisioned cohorts of 5 for a
# target of 3, with lost-uplink retries pushing some finishers past 0.5 s.
MATRIX_BASE = dict(seed=3, over_provision=True)

REGIMES = {
    "sync": dict(),
    "sync-labelflip": dict(faults="labelflip=0.3"),
    "sync-faults": dict(faults=MATRIX_FAULTS, deadline=0.5),
    "buffered": dict(aggregation="buffered", faults=MATRIX_FAULTS),
    "buffered-degenerate": dict(
        aggregation="buffered", staleness_alpha=0.0, faults=MATRIX_FAULTS,
        over_provision=False,  # buffer_size is filled in with the cohort
    ),
    "buffered-max-staleness-0": dict(
        aggregation="buffered", max_staleness=0, faults=MATRIX_FAULTS
    ),
}

PARENT_FINGERPRINTS = {
    ("fedavg", "buffered"): "3d67e61954097870",
    ("fedavg", "buffered-degenerate"): "f3240c0dd7b40180",
    ("fedavg", "buffered-max-staleness-0"): "52f797043ef7e2e2",
    ("fedavg", "sync"): "25c56c1e4a5fa64f",
    ("fedavg", "sync-faults"): "60486adcdc110d4d",
    ("fedavg", "sync-labelflip"): "e49e70124475fbb3",
    ("fedkemf", "buffered"): "f8fec7749c4d0b9d",
    ("fedkemf", "buffered-degenerate"): "971b6946244ddd55",
    ("fedkemf", "buffered-max-staleness-0"): "d8fc9825f3a9739f",
    ("fedkemf", "sync"): "53e3e6cc88e3d9fb",
    ("fedkemf", "sync-faults"): "b25b57b72c29f1d7",
    ("fedkemf", "sync-labelflip"): "ac3de695a1170a43",
    ("fedmd", "buffered"): "6889c390d65a3178",
    ("fedmd", "buffered-degenerate"): "5f5be207cbf26009",
    ("fedmd", "buffered-max-staleness-0"): "0d99c1e65bdeab9b",
    ("fedmd", "sync"): "e322e04e8fda2c0f",
    ("fedmd", "sync-faults"): "e669b344b03a20ce",
    ("fedmd", "sync-labelflip"): "89875edbd42b68cd",
    ("scaffold", "buffered"): "9c83bef49df2c356",
    ("scaffold", "buffered-degenerate"): "50d19ac160dc2efa",
    ("scaffold", "buffered-max-staleness-0"): "9467984c20d4f6de",
    ("scaffold", "sync"): "7811a31ad0843525",
    ("scaffold", "sync-faults"): "6374e5e73b35923a",
    ("scaffold", "sync-labelflip"): "6b1e69e294ee0733",
}


# The matrix federation's six Dirichlet shards all differ in size, so no two
# clients share a batch schedule and no executor can stack them: the matrix
# pins the per-client path. These cells train the same MLP on equal IID
# shards, where every cohort stacks under the default executor; they were
# recorded with ``executor="serial"`` at the commit before the in-process
# default started stacking.
PARENT_STACKED_MLP = {
    "fedavg": (
        "5f57f3ed1e77c77c",
        "dbb950b704b9c6d5234cecc34f57c45f24a6fbcf1b7c5168babce67ba9a54761",
    ),
    "fedkemf": (
        "aee43d1cb8e7e03d",
        "50a30fa925fb0cb69c5e550a0be6e6327637d18852ecf249773499f1805e0254",
    ),
}


def run_matrix_cell(name, regime, fed, model_fn, executor=None):
    cls = ALGORITHM_REGISTRY.get(name)
    overrides = {**MATRIX_BASE, **REGIMES[regime], "executor": executor}
    if regime == "buffered-degenerate":
        probe = cls(model_fn, fed, make_cfg(**overrides))
        overrides["buffer_size"] = probe.sampler.per_round
    algo = cls(model_fn, fed, make_cfg(**overrides))
    return algo, algo.run()


def state_sha(model) -> str:
    digest = hashlib.sha256()
    for arr in model.state_dict().values():
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


class TestParentCapturedFingerprints:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("name", ["fedavg", "fedkemf", "fedmd", "scaffold"])
    def test_trajectory_unmoved(self, name, regime, fed, model_fn):
        algo, history = run_matrix_cell(name, regime, fed, model_fn)
        # the in-process default: fully batched programs stack, the rest run serially
        assert algo.runtime.executor.name == "BatchedExecutor(fully_batched_only)"
        assert history.fingerprint() == PARENT_FINGERPRINTS[name, regime]
        counts = history.total_failures()
        if regime == "sync-faults":  # both sync drop reasons are exercised
            assert counts.get("deadline", 0) > 0 and counts.get("surplus", 0) > 0
        elif regime == "buffered":  # the carry-over really carried over
            assert any(s > 0 for s in history.staleness_histogram())
            assert "deadline" not in counts and "surplus" not in counts
        elif regime == "buffered-max-staleness-0":
            assert counts.get(STALE_EVICTED, 0) > 0
        elif regime == "sync-labelflip":  # some sampled client really flipped
            assert history.fingerprint() != PARENT_FINGERPRINTS[name, "sync"]

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("name", ["fedavg", "fedkemf", "fedmd", "scaffold"])
    def test_serial_oracle_unmoved(self, name, regime, fed, model_fn):
        algo, history = run_matrix_cell(name, regime, fed, model_fn, executor="serial")
        assert algo.runtime.executor.name == "SerialExecutor"
        assert history.fingerprint() == PARENT_FINGERPRINTS[name, regime]

    @pytest.mark.parametrize("executor", [None, "serial", "batched"])
    @pytest.mark.parametrize("name", sorted(PARENT_STACKED_MLP))
    def test_stacked_mlp_unmoved(self, name, executor, model_fn):
        cfg = make_cfg(rounds=3, executor=executor)
        algo = ALGORITHM_REGISTRY.get(name)(model_fn, conv_fed(1), cfg)
        history = algo.run()
        assert (history.fingerprint(), state_sha(algo.global_model)) == PARENT_STACKED_MLP[name]
        if executor != "serial":  # the default stacks MLP cohorts as explicit batched does
            assert algo.runtime.executor.last_round_mode == "batched"

    def test_sync_server_state_carries_no_buffer(self, fed, model_fn):
        cfg = make_cfg(**{**MATRIX_BASE, **REGIMES["sync-faults"]})
        algo = FedAvg(model_fn, fed, cfg)
        history = algo.run()
        # updates were left unmerged, and dropped rather than carried over
        assert history.total_failures().get("surplus", 0) > 0
        assert algo._update_buffer is None
        assert "_async_buffer" not in algo.server_state()


# --- parent-captured conv trajectories --------------------------------- #
# Every literal above runs an MLP. These cells were recorded at the commit
# *before* the conv and max-pool kernels stopped going through
# ``np.einsum`` / a two-axis ``max``: a literal that moves means a kernel
# changed a bit somewhere. Equal IID shards, so ``executor="batched"``
# really stacks the cohort through the conv and pool kernels' client axis.
# ``vgg-11`` on 8×8 inputs reaches 1×1 feature maps (``L == 1``); the
# ``-tail1`` cell evaluates in chunks of 59 + 1 samples (``N == 1``).

CONV_MODELS = {
    "cnn-2": dict(in_channels=1, width_mult=0.25),
    "resnet-20": dict(in_channels=3, width_mult=0.25),
    "vgg-11": dict(in_channels=3, width_mult=0.125),
}

# (algorithm, model, eval_batch_size) -> (history fingerprint, state SHA-256)
PARENT_CONV = {
    ("fedavg", "cnn-2", 256): (
        "9dc25af2e791260c",
        "601b74100cde8ebc3cf2cf4f7331e09abd4b7bd6a913e4c4ced42daed595ab9c",
    ),
    ("fedavg", "resnet-20", 256): (
        "647e019125bcb9cc",
        "a9e768014a0b255b0b8f8e38c8d026c47b3d7645f74c3010a648753f973da6bc",
    ),
    ("fedavg", "vgg-11", 256): (
        "05b346c541bcc413",
        "8e6a56ffbcff901f5ae171cf5ccd3501902b7ecc92f02d406d660fba4319c565",
    ),
    ("fedavg", "vgg-11", 59): (
        "a964c33597c9c115",
        "8e6a56ffbcff901f5ae171cf5ccd3501902b7ecc92f02d406d660fba4319c565",
    ),
    ("fedkemf", "cnn-2", 256): (
        "5d09d28197047e57",
        "d42be56c4ac981d98b03572b68eb9704c711d7a4566c1df30b15d4aae07d2a24",
    ),
    ("fedkemf", "resnet-20", 256): (
        "71eaa80632354992",
        "7e627b407eff57475be8d9abba1a32aa02404e635931f9b73597175a08397929",
    ),
    ("fedkemf", "vgg-11", 256): (
        "94625b9914c37df0",
        "5dc6fa01f9b6c7b85169568a80469ea408d3c6bc7a92a154afb9f66346812969",
    ),
}


@functools.lru_cache(maxsize=None)
def conv_fed(channels):
    spec = SyntheticSpec(num_classes=4, channels=channels, image_size=8, noise_std=0.25)
    return build_federated_dataset(
        SyntheticImageDataset(spec, seed=0), num_clients=6, n_train=240, n_test=60,
        n_public=60, partitioner=IIDPartitioner(6, seed=0), seed=0,
    )


def run_conv_cell(name, model, eval_batch_size, executor):
    shape = CONV_MODELS[model]
    net_fn = functools.partial(
        build_model, model, num_classes=4, image_size=8, seed=1, **shape
    )
    cfg = make_cfg(rounds=3, eval_batch_size=eval_batch_size, executor=executor)
    algo = ALGORITHM_REGISTRY.get(name)(net_fn, conv_fed(shape["in_channels"]), cfg)
    history = algo.run()
    return algo, history.fingerprint(), state_sha(algo.global_model)


class TestParentCapturedConvFingerprints:
    @pytest.mark.parametrize("executor", ["serial", "batched", None])
    @pytest.mark.parametrize("name,model,eval_batch_size", sorted(PARENT_CONV))
    def test_conv_trajectory_unmoved(self, name, model, eval_batch_size, executor):
        algo, fingerprint, sha = run_conv_cell(name, model, eval_batch_size, executor)
        assert (fingerprint, sha) == PARENT_CONV[name, model, eval_batch_size]
        if executor == "batched":  # the stacked kernels really ran
            assert algo.runtime.executor.last_round_mode == "batched"
        elif executor is None:  # the default leaves conv programs serial
            assert algo.runtime.executor.last_round_mode == "serial"
