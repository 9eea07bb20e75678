"""Mid-schedule checkpoint/resume: bit-identical replay.

Because every stochastic stream is pure in ``(seed, round, client)``, a run
checkpointed at round R and resumed must produce exactly the history and
final weights of the uninterrupted run — even with fault injection active.
These tests exercise the acceptance triple (FedAvg, SCAFFOLD, FedKEMF)
under a live ``--faults`` spec.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.fedkemf import FedKEMF
from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms.base import FLConfig
from repro.fl.algorithms.fedavg import FedAvg
from repro.fl.algorithms.scaffold import Scaffold
from repro.fl.checkpoint import load_run_checkpoint, run_checkpoint_path
from repro.nn.models import build_model

ALGOS = {"fedavg": FedAvg, "scaffold": Scaffold, "fedkemf": FedKEMF}

FAULTS = "dropout=0.3,loss=0.1"
ROUNDS = 4
RESUME_AT = 2


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
        seed=1, faults=FAULTS, distill_epochs=1,
    )
    base.update(overrides)
    return FLConfig(**base)


def history_key(history) -> dict:
    """History comparison view: everything except wall-clock timings."""
    d = history.to_dict()
    for r in d["rounds"]:
        r.pop("wall_time")
    return d


def assert_same_weights(a, b) -> None:
    sa, sb = a.global_model.state_dict(), b.global_model.state_dict()
    assert list(sa) == list(sb)
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])


class TestResumeParity:
    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_bit_identical_under_faults(self, name, fed, model_fn, tmp_path):
        cls = ALGOS[name]
        straight = cls(model_fn, fed, make_cfg())
        full = straight.run()

        # first leg: stop after RESUME_AT rounds, leaving a checkpoint
        cls(model_fn, fed, make_cfg()).run(RESUME_AT, checkpoint_dir=tmp_path)
        # second leg: a fresh process-equivalent object resumes to the end
        resumed = cls(model_fn, fed, make_cfg())
        got = resumed.run(ROUNDS, checkpoint_dir=tmp_path, resume_from=True)

        assert history_key(got) == history_key(full)
        # the one-line form of the same comparison (sibling of the
        # registry's fingerprint check): timing drift must not reach the
        # fingerprint
        assert got.fingerprint() == full.fingerprint()
        assert_same_weights(resumed, straight)

    def test_checkpoint_file_contents(self, fed, model_fn, tmp_path):
        algo = FedAvg(model_fn, fed, make_cfg())
        algo.run(RESUME_AT, checkpoint_dir=tmp_path, checkpoint_name="leg1")
        ckpt = load_run_checkpoint(run_checkpoint_path(tmp_path, "leg1"))
        assert ckpt.algorithm == "FedAvg"
        assert ckpt.next_round == RESUME_AT
        assert ckpt.fingerprint == algo.config_fingerprint()
        assert len(ckpt.history["rounds"]) == RESUME_AT

    def test_checkpoint_every_cadence(self, fed, model_fn, tmp_path):
        algo = FedAvg(model_fn, fed, make_cfg())
        algo.run(3, checkpoint_dir=tmp_path, checkpoint_every=2, checkpoint_name="c")
        # rounds 2 (cadence) and 3 (final) both wrote; the file holds the last
        ckpt = load_run_checkpoint(run_checkpoint_path(tmp_path, "c"))
        assert ckpt.next_round == 3

    def test_resume_of_completed_run_is_instant(self, fed, model_fn, tmp_path):
        full = FedAvg(model_fn, fed, make_cfg()).run(checkpoint_dir=tmp_path)
        again = FedAvg(model_fn, fed, make_cfg()).run(
            checkpoint_dir=tmp_path, resume_from=True
        )
        assert history_key(again) == history_key(full)

    def test_auto_resume_without_checkpoint_starts_fresh(self, fed, model_fn, tmp_path):
        history = FedAvg(model_fn, fed, make_cfg()).run(
            RESUME_AT, checkpoint_dir=tmp_path, resume_from=True
        )
        assert history.num_rounds == RESUME_AT


class TestBufferedResume:
    """Mid-buffer checkpoint/resume: the server buffer rides inside
    ``server_state()`` and a run killed with updates still pending must
    replay bit-identically (DESIGN.md §10)."""

    # Straggler-heavy, no dropout: a small buffer accumulates a genuine
    # backlog, so the checkpoint at RESUME_AT captures pending updates.
    BUFFERED = dict(
        aggregation="buffered", buffer_size=1, staleness_alpha=0.5,
        max_staleness=6, faults="slowdown=6,straggler=0.4",
        over_provision=False,
    )

    @pytest.mark.parametrize("name", ["fedavg", "fedkemf"])
    def test_mid_buffer_resume_bit_identical(self, name, fed, model_fn, tmp_path):
        cls = ALGOS[name]
        straight = cls(model_fn, fed, make_cfg(**self.BUFFERED))
        full = straight.run()

        leg1 = cls(model_fn, fed, make_cfg(**self.BUFFERED))
        leg1.run(RESUME_AT, checkpoint_dir=tmp_path)
        # the scenario is only interesting if the kill really was mid-buffer
        assert len(leg1._update_buffer) > 0

        resumed = cls(model_fn, fed, make_cfg(**self.BUFFERED))
        got = resumed.run(ROUNDS, checkpoint_dir=tmp_path, resume_from=True)
        assert history_key(got) == history_key(full)
        assert got.fingerprint() == full.fingerprint()
        assert_same_weights(resumed, straight)

    def test_checkpoint_carries_the_buffer(self, fed, model_fn, tmp_path):
        algo = FedAvg(model_fn, fed, make_cfg(**self.BUFFERED))
        algo.run(RESUME_AT, checkpoint_dir=tmp_path, checkpoint_name="buf")
        ckpt = load_run_checkpoint(run_checkpoint_path(tmp_path, "buf"))
        buffer = ckpt.server_state["_async_buffer"]
        assert buffer["version"] == RESUME_AT
        assert len(buffer["pending"]) == len(algo._update_buffer)
        assert len(buffer["pending"]) > 0

    def test_sync_checkpoint_has_no_buffer_key(self, fed, model_fn, tmp_path):
        FedAvg(model_fn, fed, make_cfg()).run(
            RESUME_AT, checkpoint_dir=tmp_path, checkpoint_name="plain"
        )
        ckpt = load_run_checkpoint(run_checkpoint_path(tmp_path, "plain"))
        assert "_async_buffer" not in ckpt.server_state


class TestResumeValidation:
    def test_fingerprint_mismatch_rejected(self, fed, model_fn, tmp_path):
        FedAvg(model_fn, fed, make_cfg()).run(RESUME_AT, checkpoint_dir=tmp_path)
        different = FedAvg(model_fn, fed, make_cfg(lr=0.05))
        with pytest.raises(ValueError, match="fingerprint"):
            different.run(ROUNDS, checkpoint_dir=tmp_path, resume_from=True)

    def test_algorithm_mismatch_rejected(self, fed, model_fn, tmp_path):
        FedAvg(model_fn, fed, make_cfg()).run(
            RESUME_AT, checkpoint_dir=tmp_path, checkpoint_name="run"
        )
        path = run_checkpoint_path(tmp_path, "run")
        with pytest.raises(ValueError, match="cannot resume"):
            Scaffold(model_fn, fed, make_cfg()).run(ROUNDS, resume_from=path)

    def test_executor_excluded_from_fingerprint(self, fed, model_fn):
        # parity across backends ⇒ a checkpoint may resume under a
        # different worker count / executor kind
        a = FedAvg(model_fn, fed, make_cfg())
        b = FedAvg(model_fn, fed, make_cfg(workers=4, executor="parallel"))
        assert a.config_fingerprint() == b.config_fingerprint()
        c = FedAvg(model_fn, fed, make_cfg(faults="dropout=0.5"))
        assert a.config_fingerprint() != c.config_fingerprint()

    def test_history_fingerprint_ignores_timing_and_meta(self, fed, model_fn):
        """Regression: wall-clock timings and free-form meta never leak
        into ``RunHistory.fingerprint()`` — a resumed run (whose per-round
        wall times inevitably differ) must hash identically."""
        history = FedAvg(model_fn, fed, make_cfg()).run(RESUME_AT)
        baseline = history.fingerprint()
        assert len(baseline) == 16 and int(baseline, 16) >= 0

        for r in history.records:
            r.wall_time += 123.456  # simulate a slower machine / resume leg
        history.meta["resumed_from"] = "round-2"
        assert history.fingerprint() == baseline

        history.records[-1].accuracy += 1e-9  # any measured axis must count
        assert history.fingerprint() != baseline

    def test_bad_arguments(self, fed, model_fn, tmp_path):
        algo = FedAvg(model_fn, fed, make_cfg())
        with pytest.raises(ValueError, match="checkpoint_every"):
            algo.run(checkpoint_dir=tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            algo.run(resume_from=True)
