"""FedKEMF end-to-end: the paper's algorithm."""

import numpy as np
import pytest

from repro.core import DeepMutualTrainer, FedKEMF
from repro.data.federated import build_federated_dataset
from repro.fl import FedAvg, FLConfig
from repro.fl.state_store import LazyFactoryBank
from repro.nn.models import MLP


@pytest.fixture(scope="module")
def fed(tiny_world):
    return build_federated_dataset(
        tiny_world, num_clients=4, n_train=240, n_test=80, n_public=80, alpha=1.0, seed=0
    )


def knowledge_fn():
    return MLP(3 * 8 * 8, num_classes=4, hidden=(8,), seed=1)


def local_fn():
    return MLP(3 * 8 * 8, num_classes=4, hidden=(32,), seed=2)


CFG = FLConfig(
    rounds=2, sample_ratio=0.5, local_epochs=1, batch_size=20, lr=0.05, seed=0,
    distill_epochs=1, distill_lr=1e-3,
)


class TestBasics:
    def test_runs(self, fed):
        h = FedKEMF(knowledge_fn, fed, CFG, local_model_fns=local_fn).run()
        assert h.num_rounds == 2
        assert h.algorithm == "FedKEMF"

    def test_homogeneous_default_local(self, fed):
        # omitting local_model_fns deploys the knowledge architecture locally
        algo = FedKEMF(knowledge_fn, fed, CFG)
        assert len(algo.local_models) == fed.num_clients

    def test_per_client_builders(self, fed):
        fns = [local_fn if i % 2 else knowledge_fn for i in range(4)]
        algo = FedKEMF(knowledge_fn, fed, CFG, local_model_fns=fns)
        sizes = [m.num_parameters() for m in algo.local_models]
        assert sizes[0] != sizes[1]

    def test_single_trainer_bank(self, fed):
        # the client seam is the base class's: no second bank beside it
        algo = FedKEMF(knowledge_fn, fed, CFG.with_overrides(kl_weight=0.5))
        banks = [k for k, v in vars(algo).items() if isinstance(v, LazyFactoryBank)]
        assert banks == ["trainers"]
        trainer, plain = algo.trainers[0], FedAvg(knowledge_fn, fed, CFG).trainers[0]
        assert isinstance(trainer, DeepMutualTrainer) and trainer.kl_weight == 0.5
        # same shard, loader seed and solver settings as the baselines' trainer
        assert {**vars(trainer), "kl_weight": None} == {**vars(plain), "kl_weight": None}

    def test_builder_count_mismatch(self, fed):
        with pytest.raises(ValueError):
            FedKEMF(knowledge_fn, fed, CFG, local_model_fns=[local_fn] * 3)

    def test_deterministic(self, fed):
        h1 = FedKEMF(knowledge_fn, fed, CFG, local_model_fns=local_fn).run()
        h2 = FedKEMF(knowledge_fn, fed, CFG, local_model_fns=local_fn).run()
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)


class TestCommunication:
    def test_only_knowledge_network_crosses_wire(self, fed):
        """The headline property: per-round cost = 2 × knowledge payload,
        regardless of how large the local models are."""
        h = FedKEMF(knowledge_fn, fed, CFG, local_model_fns=local_fn).run(rounds=1)
        payload = knowledge_fn().num_bytes()
        per_client = h.records[0].round_bytes / h.records[0].num_selected
        assert 2 * payload <= per_client < 2.1 * payload

    def test_cost_independent_of_local_model_size(self, fed):
        big_fn = lambda: MLP(3 * 8 * 8, 4, hidden=(128, 128), seed=2)
        h_small = FedKEMF(knowledge_fn, fed, CFG, local_model_fns=local_fn).run(rounds=1)
        h_big = FedKEMF(knowledge_fn, fed, CFG, local_model_fns=big_fn).run(rounds=1)
        assert h_small.total_bytes == h_big.total_bytes

    def test_cheaper_than_fedavg_on_big_model(self, fed):
        big_fn = lambda: MLP(3 * 8 * 8, 4, hidden=(128, 128), seed=2)
        h_avg = FedAvg(big_fn, fed, CFG).run(rounds=1)
        h_kemf = FedKEMF(knowledge_fn, fed, CFG, local_model_fns=big_fn).run(rounds=1)
        assert h_kemf.total_bytes < h_avg.total_bytes / 3


class TestPrivacyBoundary:
    def test_local_models_persist_across_rounds(self, fed):
        algo = FedKEMF(knowledge_fn, fed, CFG.with_overrides(sample_ratio=1.0), local_model_fns=local_fn)
        ids_before = [id(m) for m in algo.local_models]
        algo.run(rounds=2)
        assert [id(m) for m in algo.local_models] == ids_before  # same objects

    def test_local_models_train(self, fed):
        algo = FedKEMF(knowledge_fn, fed, CFG.with_overrides(sample_ratio=1.0), local_model_fns=local_fn)
        before = [next(iter(m.parameters())).data.copy() for m in algo.local_models]
        algo.run(rounds=1)
        for m, b in zip(algo.local_models, before):
            assert not np.allclose(next(iter(m.parameters())).data, b)

    def test_unsampled_clients_untouched(self, fed):
        algo = FedKEMF(knowledge_fn, fed, CFG.with_overrides(sample_ratio=0.5), local_model_fns=local_fn)
        selected = algo.sampler.sample(0)
        unselected = [i for i in range(fed.num_clients) if i not in selected]
        before = {
            i: next(iter(algo.local_models[i].parameters())).data.copy() for i in unselected
        }
        algo.run(rounds=1)
        for i in unselected:
            np.testing.assert_array_equal(
                next(iter(algo.local_models[i].parameters())).data, before[i]
            )


class TestFusionModes:
    def test_weight_average_mode(self, fed):
        cfg = CFG.with_overrides(fusion="weight-average")
        h = FedKEMF(knowledge_fn, fed, cfg, local_model_fns=local_fn).run()
        assert h.num_rounds == 2

    @pytest.mark.parametrize("strategy", ["max", "mean", "vote"])
    def test_ensemble_strategies(self, fed, strategy):
        cfg = CFG.with_overrides(ensemble=strategy)
        algo = FedKEMF(knowledge_fn, fed, cfg, local_model_fns=local_fn)
        algo.run(rounds=1)
        assert algo.last_distill_loss is not None and np.isfinite(algo.last_distill_loss)

    def test_weight_average_mode_skips_distillation(self, fed):
        cfg = CFG.with_overrides(fusion="weight-average")
        algo = FedKEMF(knowledge_fn, fed, cfg, local_model_fns=local_fn)
        algo.run(rounds=1)
        assert algo.last_distill_loss is None


class TestLearning:
    def test_knowledge_network_learns(self, fed):
        cfg = CFG.with_overrides(rounds=8, sample_ratio=1.0, local_epochs=2)
        h = FedKEMF(knowledge_fn, fed, cfg, local_model_fns=local_fn).run()
        assert h.best_accuracy > 0.5  # chance = 0.25

    def test_local_eval_uses_local_models(self, fed):
        cfg = CFG.with_overrides(eval_local=True, rounds=1)
        algo = FedKEMF(knowledge_fn, fed, cfg, local_model_fns=local_fn)
        h = algo.run()
        assert h.records[0].local_accuracy is not None
        assert algo.local_models_for_eval() is algo.local_models
