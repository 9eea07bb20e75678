"""Local trainer behavior."""

import numpy as np
import pytest

from repro.core.mutual import DeepMutualTrainer
from repro.data.synthetic import make_blobs
from repro.fl.metrics import evaluate_model
from repro.fl.trainer import LocalTrainer, lockstep_batches, train_stacked
from repro.nn.batched import build_stacked
from repro.nn.models import MLP, build_model
from tests.helpers import SOLVER, STACK_CASES, assert_same_bits, image_shards


class TestLocalTrainer:
    def test_loss_decreases(self):
        ds = make_blobs(120, num_classes=4, dim=8, separation=4.0, seed=0)
        m = MLP(8, 4, hidden=(16,), seed=0)
        tr = LocalTrainer(ds, batch_size=16, lr=0.05, seed=0)
        s1 = tr.train(m, epochs=1)
        s2 = tr.train(m, epochs=3, round_idx=1)
        assert s2.mean_loss < s1.mean_loss

    def test_accuracy_improves(self):
        ds = make_blobs(150, num_classes=4, dim=8, separation=4.0, seed=0)
        te = make_blobs(60, num_classes=4, dim=8, separation=4.0, seed=1)
        m = MLP(8, 4, hidden=(16,), seed=0)
        before = evaluate_model(m, te)[0]
        LocalTrainer(ds, batch_size=16, lr=0.05, seed=0).train(m, epochs=5)
        after = evaluate_model(m, te)[0]
        assert after > before + 0.2

    def test_step_counting(self):
        ds = make_blobs(100, num_classes=4, dim=8, seed=0)
        m = MLP(8, 4, seed=0)
        stats = LocalTrainer(ds, batch_size=25, seed=0).train(m, epochs=2)
        assert stats.steps == 2 * 4  # 100/25 batches per epoch
        assert stats.epochs == 2
        assert stats.samples_seen == 200

    def test_grad_hook_called_per_step(self):
        ds = make_blobs(50, num_classes=4, dim=8, seed=0)
        m = MLP(8, 4, seed=0)
        calls = []
        LocalTrainer(ds, batch_size=25, seed=0).train(
            m, epochs=1, grad_hook=lambda model: calls.append(1)
        )
        assert len(calls) == 2

    def test_grad_hook_modifies_update(self):
        ds = make_blobs(50, num_classes=4, dim=8, seed=0)
        m1 = MLP(8, 4, seed=0)
        m2 = MLP(8, 4, seed=0)

        def zero_hook(model):
            for p in model.parameters():
                p.grad[...] = 0.0

        LocalTrainer(ds, batch_size=50, lr=0.1, momentum=0.0, seed=0).train(
            m1, epochs=1, grad_hook=zero_hook
        )
        # zeroed gradients → no movement
        for (_, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_lr_override(self):
        ds = make_blobs(50, num_classes=4, dim=8, seed=0)
        m1 = MLP(8, 4, seed=0)
        m2 = MLP(8, 4, seed=0)
        LocalTrainer(ds, batch_size=50, lr=0.1, momentum=0.0, seed=0).train(m1, epochs=1, lr=1e-8)
        LocalTrainer(ds, batch_size=50, lr=0.1, momentum=0.0, seed=0).train(m2, epochs=1)
        d1 = np.abs(m1.net[1].weight.data - MLP(8, 4, seed=0).net[1].weight.data).max()
        d2 = np.abs(m2.net[1].weight.data - MLP(8, 4, seed=0).net[1].weight.data).max()
        assert d1 < d2

    def test_round_idx_changes_shuffle(self):
        ds = make_blobs(64, num_classes=4, dim=8, seed=0)
        tr = LocalTrainer(ds, batch_size=64, seed=0)
        l0 = tr.make_loader(0)
        l1 = tr.make_loader(1)
        (x0, _), = list(l0)
        (x1, _), = list(l1)
        assert not np.allclose(x0, x1)


class TestTrainStacked:
    """``train_stacked`` on a stack of K clients ≡ K ``LocalTrainer.train``
    calls: every ``TrainStats`` field and every state bit."""

    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_equals_k_serial_calls(self, name):
        kw, k = STACK_CASES[name], 3
        trainers = [LocalTrainer(ds, seed=s, **SOLVER) for s, ds in enumerate(image_shards(k))]
        states = [build_model(name, seed=10 + i, **kw).state_dict() for i in range(k)]
        stacked = build_stacked(build_model(name, seed=0, **kw), k)
        stacked.load_client_states(states)
        got = train_stacked(stacked, trainers, 2, round_idx=3)
        assert len(got) == k
        for i, trainer in enumerate(trainers):
            model = build_model(name, seed=0, **kw)
            model.load_state_dict(states[i])
            want = trainer.train(model, 2, round_idx=3)
            assert vars(got[i]) == vars(want)
            assert_same_bits(stacked.client_state(i), model.state_dict())


class TestLockstepBatches:
    """The scaffold ``train_stacked`` and ``train_stacked_mutual`` share."""

    def test_stacks_replay_each_clients_serial_schedule(self):
        shards = [make_blobs(40, num_classes=4, dim=8, seed=s) for s in range(3)]
        trainers = [LocalTrainer(ds, batch_size=16, seed=s) for s, ds in enumerate(shards)]
        steps = lockstep_batches(trainers, 3, epochs=2, round_idx=5)
        assert iter(steps) is steps  # built one step at a time, not a list
        steps = list(steps)
        for j, tr in enumerate(trainers):
            loader = tr.make_loader(5)
            serial = [batch for _epoch in range(2) for batch in loader]
            assert len(serial) == len(steps) == 6
            for (xs, ys), (xb, yb) in zip(steps, serial):
                np.testing.assert_array_equal(xs[j], xb)
                np.testing.assert_array_equal(ys[j], yb)

    @pytest.mark.parametrize(
        "cls, odd_shard, odd_setting, message",
        [
            (LocalTrainer, 40, dict(lr=0.01), "solver hyperparameters"),
            (LocalTrainer, 40, dict(weight_decay=1e-4), "solver hyperparameters"),
            (LocalTrainer, 40, dict(batch_size=8), "solver hyperparameters"),
            (DeepMutualTrainer, 40, dict(kl_weight=0.5), "solver hyperparameters"),
            (LocalTrainer, 24, dict(), "batch schedule"),
        ],
    )
    def test_rejects_a_cohort_that_cannot_train_in_lockstep(
        self, cls, odd_shard, odd_setting, message
    ):
        settings = dict(batch_size=16, lr=0.05)
        trainers = [
            cls(make_blobs(40, num_classes=4, dim=8, seed=0), seed=0, **settings),
            cls(make_blobs(odd_shard, num_classes=4, dim=8, seed=1), seed=1,
                **{**settings, **odd_setting}),
        ]
        with pytest.raises(ValueError, match=message):  # at the call, not at the first step
            lockstep_batches(trainers, 2, epochs=1, round_idx=0)
        with pytest.raises(ValueError, match="expected 3 trainers"):
            lockstep_batches(trainers, 3, epochs=1, round_idx=0)
