"""Integration tests: every baseline algorithm runs, meters correctly, learns.

Uses a 4-class 8×8 synthetic world with tiny MLP/CNN models so each test
stays in the sub-second to few-second range.
"""

import numpy as np
import pytest

from repro.data.federated import build_federated_dataset
from repro.fl import (
    ALGORITHM_REGISTRY,
    FedAvg,
    FedDF,
    FedNova,
    FedProx,
    FLAlgorithm,
    FLConfig,
    Scaffold,
)
from repro.nn.models import MLP, build_model


@pytest.fixture(scope="module")
def fed(tiny_world):
    return build_federated_dataset(
        tiny_world, num_clients=4, n_train=240, n_test=80, n_public=80, alpha=1.0, seed=0
    )


def mlp_fn():
    return MLP(3 * 8 * 8, num_classes=4, hidden=(16,), seed=1)


CFG = FLConfig(rounds=2, sample_ratio=0.5, local_epochs=1, batch_size=20, lr=0.05, seed=0)

ALL_ALGOS = [FedAvg, FedProx, FedNova, Scaffold, FedDF]


class TestAllAlgorithmsRun:
    @pytest.mark.parametrize("cls", ALL_ALGOS)
    def test_two_rounds_produce_history(self, cls, fed):
        h = cls(mlp_fn, fed, CFG).run()
        assert h.num_rounds == 2
        assert h.algorithm == cls.name
        assert (h.accuracies >= 0).all() and (h.accuracies <= 1).all()
        assert h.total_bytes > 0
        assert h.records[0].num_selected == 2

    @pytest.mark.parametrize("cls", ALL_ALGOS)
    def test_deterministic_given_seed(self, cls, fed):
        h1 = cls(mlp_fn, fed, CFG).run()
        h2 = cls(mlp_fn, fed, CFG).run()
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)
        assert h1.total_bytes == h2.total_bytes


class TestLearning:
    def test_fedavg_learns(self, fed):
        cfg = CFG.with_overrides(rounds=8, sample_ratio=1.0, local_epochs=2)
        h = FedAvg(mlp_fn, fed, cfg).run()
        assert h.best_accuracy > 0.55  # 4 classes, chance = 0.25

    def test_global_model_changes_each_round(self, fed):
        algo = FedAvg(mlp_fn, fed, CFG)
        before = algo.global_model.state_dict()
        algo.run(rounds=1)
        after = algo.global_model.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)


class TestCommunicationAccounting:
    def test_fedavg_cost_is_two_payloads(self, fed):
        h = FedAvg(mlp_fn, fed, CFG).run(rounds=1)
        payload = mlp_fn().num_bytes()
        per_client = h.records[0].round_bytes / h.records[0].num_selected
        assert payload * 2 <= per_client < payload * 2.05

    def test_fednova_and_scaffold_cost_double(self, fed):
        base = FedAvg(mlp_fn, fed, CFG).run(rounds=1).records[0].round_bytes
        nova = FedNova(mlp_fn, fed, CFG).run(rounds=1).records[0].round_bytes
        scaf = Scaffold(mlp_fn, fed, CFG).run(rounds=1).records[0].round_bytes
        assert 1.7 < nova / base < 2.1
        assert 1.9 < scaf / base < 2.1

    def test_cost_scales_with_model(self, fed):
        small = FedAvg(mlp_fn, fed, CFG).run(rounds=1).total_bytes
        big_fn = lambda: MLP(3 * 8 * 8, 4, hidden=(64, 64), seed=1)
        big = FedAvg(big_fn, fed, CFG).run(rounds=1).total_bytes
        assert big > 1.5 * small


class TestFedProx:
    def test_prox_zero_matches_fedavg(self, fed):
        cfg = CFG.with_overrides(prox_mu=0.0)
        h_prox = FedProx(mlp_fn, fed, cfg).run()
        h_avg = FedAvg(mlp_fn, fed, CFG).run()
        np.testing.assert_allclose(h_prox.accuracies, h_avg.accuracies, atol=1e-6)

    def test_stronger_mu_reduces_drift(self, fed):
        """The proximal pull shrinks the distance clients move from the
        broadcast weights (momentum off so the effect is clean)."""

        def drift_for(mu: float) -> float:
            cfg = CFG.with_overrides(prox_mu=mu, rounds=1, sample_ratio=1.0, momentum=0.0)
            algo = FedProx(mlp_fn, fed, cfg)
            before = {k: v.copy() for k, v in algo.global_model.state_dict().items()}
            algo.run()
            after = algo.global_model.state_dict()
            return max(np.abs(after[k] - before[k]).max() for k in before if "weight" in k)

        assert drift_for(10.0) < drift_for(0.0)


class TestFedNova:
    def test_heterogeneous_steps_normalized(self, tiny_world):
        """Clients with very different shard sizes: FedNova must still make
        a sane (finite, learning) update."""
        from repro.data.partition import QuantitySkewPartitioner

        fed = build_federated_dataset(
            tiny_world, num_clients=4, n_train=240, n_test=80, n_public=80,
            partitioner=QuantitySkewPartitioner(4, alpha=0.3, seed=0), seed=0,
        )
        cfg = CFG.with_overrides(rounds=4, sample_ratio=1.0)
        h = FedNova(mlp_fn, fed, cfg).run()
        assert np.isfinite(h.accuracies).all()
        assert h.best_accuracy > 0.3


class TestScaffold:
    def test_controls_update(self, fed):
        algo = Scaffold(mlp_fn, fed, CFG)
        algo.run(rounds=2)
        assert algo.client_controls  # some clients visited
        total = sum(np.abs(v).sum() for c in algo.client_controls.values() for v in c.values())
        assert total > 0
        server_total = sum(np.abs(v).sum() for v in algo.server_control.values())
        assert server_total > 0

    def test_momentum_disabled_locally(self, fed):
        algo = Scaffold(mlp_fn, fed, CFG)
        assert all(tr.momentum == 0.0 for tr in algo.trainers)


class TestFedDF:
    def test_distills_on_public(self, fed):
        cfg = CFG.with_overrides(distill_epochs=1, distill_lr=1e-3)
        h = FedDF(mlp_fn, fed, cfg).run()
        assert h.num_rounds == 2

    def test_same_wire_cost_as_fedavg(self, fed):
        a = FedAvg(mlp_fn, fed, CFG).run(rounds=1).total_bytes
        d = FedDF(mlp_fn, fed, CFG).run(rounds=1).total_bytes
        assert a == d  # distillation is server-local, costs nothing on the wire


class TestRegistryAndConfig:
    def test_registry_contains_all(self):
        for name in ("fedavg", "fedprox", "fednova", "scaffold", "feddf", "fedkemf"):
            assert name in ALGORITHM_REGISTRY

    def test_config_overrides(self):
        cfg = FLConfig().with_overrides(lr=0.5, rounds=3)
        assert cfg.lr == 0.5 and cfg.rounds == 3
        assert FLConfig().lr != 0.5  # original untouched

    @pytest.mark.parametrize(
        "bad",
        [
            {"rounds": 0},
            {"sample_ratio": 0.0},
            {"sample_ratio": 1.5},
            {"local_epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"distill_lr": -1.0},
            {"kl_weight": -0.1},
            {"prox_mu": -1.0},
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            FLConfig(**bad)

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError):
            FLConfig().with_overrides(lr=-1.0)

    def test_eval_local_records(self, fed):
        cfg = CFG.with_overrides(eval_local=True, rounds=1)
        h = FedAvg(mlp_fn, fed, cfg).run()
        assert h.records[0].local_accuracy is not None

    def test_bad_fusion_mode_rejected_by_fedkemf(self, fed):
        from repro.core import FedKEMF

        with pytest.raises(ValueError):
            FedKEMF(mlp_fn, fed, CFG.with_overrides(fusion="bogus"))


class TestOneRoundLoop:
    """FLAlgorithm.round() is the only round loop: subclasses customise it
    through the hooks and cannot replace it."""

    @pytest.mark.parametrize("base", [FLAlgorithm, FedAvg])
    def test_subclass_defining_round_is_refused_at_creation(self, base):
        with pytest.raises(TypeError, match="defines round") as err:

            class Wholesale(base):
                def round(self, round_idx, selected):
                    pass

        for hook in (
            "client_payload", "client_work", "apply_client_update",
            "aggregate", "aggregate_buffered",
        ):
            assert hook in str(err.value)

    def test_round_returns_what_the_record_holds(self, fed):
        algo = FedAvg(mlp_fn, fed, CFG.with_overrides(faults="dropout=0.5"))
        selected = algo.select_clients(0)
        outcome = algo.round(0, selected)
        history = FedAvg(mlp_fn, fed, CFG.with_overrides(faults="dropout=0.5")).run(rounds=1)
        record = history.records[0]
        assert outcome.failures  # dropout fired, so the comparison is not vacuous
        assert record.num_selected == len(outcome.aggregated)
        assert record.failures == outcome.failures
        assert record.num_failed == len(outcome.failures)
        assert record.staleness == outcome.staleness
        assert record.buffer_len == outcome.buffer_len
        assert record.num_sampled == len(selected)
