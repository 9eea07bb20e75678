"""Deep mutual learning (Alg. 1)."""

import numpy as np
import pytest

from repro.core.mutual import DeepMutualTrainer, train_stacked_mutual
from repro.data.synthetic import make_blobs
from repro.fl.metrics import evaluate_model
from repro.nn.batched import build_stacked
from repro.nn.models import MLP, build_model
from tests.helpers import SOLVER, STACK_CASES, assert_same_bits, image_shards


@pytest.fixture(scope="module")
def data():
    tr = make_blobs(240, num_classes=4, dim=8, separation=4.0, seed=0)
    te = make_blobs(100, num_classes=4, dim=8, separation=4.0, seed=1)
    return tr, te


def nets():
    local = MLP(8, 4, hidden=(32,), seed=0)
    knowledge = MLP(8, 4, hidden=(8,), seed=1)
    return local, knowledge


class TestDML:
    def test_both_networks_learn(self, data):
        tr, te = data
        local, knowledge = nets()
        before_l = evaluate_model(local, te)[0]
        before_k = evaluate_model(knowledge, te)[0]
        dml = DeepMutualTrainer(tr, batch_size=24, lr=0.05, seed=0)
        dml.train(local, knowledge, epochs=6)
        assert evaluate_model(local, te)[0] > before_l + 0.2
        assert evaluate_model(knowledge, te)[0] > before_k + 0.2

    def test_networks_converge_toward_agreement(self, data):
        tr, _ = data
        local, knowledge = nets()
        dml = DeepMutualTrainer(tr, batch_size=24, lr=0.05, seed=0)
        early = dml.train(local, knowledge, epochs=1)
        late = dml.train(local, knowledge, epochs=6, round_idx=1)
        assert late.mean_kl < early.mean_kl  # mutual KL shrinks

    def test_stats_fields(self, data):
        tr, _ = data
        local, knowledge = nets()
        stats = DeepMutualTrainer(tr, batch_size=48, seed=0).train(local, knowledge, epochs=2)
        assert stats.steps == 2 * 5  # 240/48 per epoch
        assert stats.mean_local_loss > 0 and stats.mean_knowledge_loss > 0

    def test_kl_weight_zero_decouples(self, data):
        """With λ=0, the knowledge net's trajectory must equal plain solo
        training on the same shuffles (the local model can't influence it)."""
        tr, _ = data
        _, k1 = nets()
        local, k2 = nets()
        from repro.fl.trainer import LocalTrainer

        solo = LocalTrainer(tr, batch_size=24, lr=0.05, seed=0)
        solo.train(k1, epochs=2)
        DeepMutualTrainer(tr, batch_size=24, lr=0.05, kl_weight=0.0, seed=0).train(
            local, k2, epochs=2
        )
        for (_, p1), (_, p2) in zip(k1.named_parameters(), k2.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=1e-5)

    def test_update_is_linear_in_kl_weight(self, data):
        """Alg. 1 line 7: ∇(CE + λ·KL) — a single full-batch step's update
        must be affine in λ: Δ(2λ) − Δ(0) = 2(Δ(λ) − Δ(0))."""
        tr, _ = data

        def one_step_update(weight):
            local, knowledge = nets()
            ref = knowledge.state_dict()
            DeepMutualTrainer(
                tr, batch_size=len(tr), lr=0.1, momentum=0.0, kl_weight=weight, seed=0
            ).train(local, knowledge, epochs=1)
            new = knowledge.state_dict()
            return {k: new[k].astype(np.float64) - ref[k] for k in new}

        d0 = one_step_update(0.0)
        d1 = one_step_update(1.0)
        d2 = one_step_update(2.0)
        for k in d0:
            np.testing.assert_allclose(
                d2[k] - d0[k], 2.0 * (d1[k] - d0[k]), atol=1e-5,
                err_msg=f"non-linear KL contribution in {k}",
            )

    def test_negative_kl_weight_rejected(self, data):
        tr, _ = data
        with pytest.raises(ValueError):
            DeepMutualTrainer(tr, kl_weight=-1.0)

    def test_deterministic(self, data):
        tr, _ = data
        l1, k1 = nets()
        l2, k2 = nets()
        DeepMutualTrainer(tr, batch_size=24, seed=5).train(l1, k1, epochs=2)
        DeepMutualTrainer(tr, batch_size=24, seed=5).train(l2, k2, epochs=2)
        for (_, p1), (_, p2) in zip(k1.named_parameters(), k2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_heterogeneous_architectures(self, data):
        """DML must work across different architectures — the heart of the
        paper's model-heterogeneity story."""
        tr, te = data
        from repro.nn.models import build_model

        local = MLP(8, 4, hidden=(32, 32), seed=0)
        knowledge = MLP(8, 4, hidden=(), seed=1)  # logistic regression
        DeepMutualTrainer(tr, batch_size=24, lr=0.05, seed=0).train(local, knowledge, epochs=5)
        assert evaluate_model(knowledge, te)[0] > 0.5


class TestTrainStackedMutual:
    """``train_stacked_mutual`` on K-client stacks ≡ K
    ``DeepMutualTrainer.train`` calls: every ``MutualTrainStats`` field
    (``mean_kl`` included) and both networks' state bits."""

    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_equals_k_serial_calls(self, name):
        kw, k = STACK_CASES[name], 3

        def local(seed):
            return build_model(name, seed=seed, **{**kw, "width_mult": 0.5})

        def knowledge(seed):
            return build_model(name, seed=seed, **kw)

        trainers = [
            DeepMutualTrainer(ds, kl_weight=0.5, seed=s, **SOLVER)
            for s, ds in enumerate(image_shards(k))
        ]
        local_states = [local(10 + i).state_dict() for i in range(k)]
        know_states = [knowledge(20 + i).state_dict() for i in range(k)]
        stacked_local = build_stacked(local(0), k)
        stacked_know = build_stacked(knowledge(0), k)
        stacked_local.load_client_states(local_states)
        stacked_know.load_client_states(know_states)
        got = train_stacked_mutual(stacked_local, stacked_know, trainers, 2, round_idx=3)
        assert len(got) == k
        for i, trainer in enumerate(trainers):
            local_model, know_model = local(0), knowledge(0)
            local_model.load_state_dict(local_states[i])
            know_model.load_state_dict(know_states[i])
            want = trainer.train(local_model, know_model, 2, round_idx=3)
            assert vars(got[i]) == vars(want)
            assert_same_bits(stacked_local.client_state(i), local_model.state_dict())
            assert_same_bits(stacked_know.client_state(i), know_model.state_dict())
