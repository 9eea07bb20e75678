"""End-to-end faulty runs: determinism, over-provisioning, deadlines, and
the virtual clock."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import FedKEMF
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.fl.devices import sample_device_profiles
from repro.runtime.clock import VirtualClock
from repro.runtime.runtime import FLRuntime


def _config(**overrides):
    base = dict(
        rounds=2, sample_ratio=0.5, local_epochs=1, batch_size=16, lr=0.05, seed=0,
        distill_epochs=1,
    )
    base.update(overrides)
    return FLConfig(**base)


class TestFaultyRunDeterminism:
    def test_same_seed_same_run(self, micro_fed, micro_model_fn):
        cfg = _config(faults="dropout=0.3,loss=0.2")
        histories = []
        for _ in range(2):
            algo = ALGORITHM_REGISTRY.get("fedavg")(micro_model_fn, micro_fed, cfg)
            histories.append(algo.run())
        a, b = histories
        assert [r.failures for r in a.records] == [r.failures for r in b.records]
        np.testing.assert_array_equal(a.accuracies, b.accuracies)
        np.testing.assert_array_equal(a.sim_times, b.sim_times)

    def test_seed_changes_fault_schedule(self, micro_fed, micro_model_fn):
        fails = []
        for seed in (0, 1):
            cfg = _config(faults="dropout=0.45,loss=0.3", rounds=3, seed=seed)
            algo = ALGORITHM_REGISTRY.get("fedavg")(micro_model_fn, micro_fed, cfg)
            fails.append([set(r.failures) for r in algo.run().records])
        assert fails[0] != fails[1]


class TestOverProvisioning:
    def test_sample_inflated_under_dropout(self, micro_fed, micro_model_fn):
        cfg = _config(faults="dropout=0.3")
        algo = ALGORITHM_REGISTRY.get("fedavg")(micro_model_fn, micro_fed, cfg)
        # 6 clients, ratio 0.5 → K = 3; ceil(3 / 0.7) = 5 sampled
        assert algo.sampler.per_round == 3
        assert algo.runtime.provision(3, 6) == 5
        history = algo.run()
        for r in history.records:
            assert r.num_sampled == 5
            assert r.num_selected <= 3  # never aggregates more than K
            assert r.num_selected == r.num_sampled - r.num_failed

    def test_can_be_disabled(self, micro_fed, micro_model_fn):
        cfg = _config(faults="dropout=0.3", over_provision=False)
        algo = ALGORITHM_REGISTRY.get("fedavg")(micro_model_fn, micro_fed, cfg)
        assert algo.runtime.provision(3, 6) == 3

    def test_provision_capped_by_population(self):
        from repro.runtime.faults import FaultPlan, FaultSpec

        rt = FLRuntime(plan=FaultPlan(FaultSpec(dropout=0.8)))
        assert rt.provision(3, 6) == 6  # ceil(3/0.2)=15, capped at the fleet


class TestFedKEMFFaultySmoke:
    def test_five_round_dropout_deadline_run(self, micro_fed, micro_model_fn):
        """The ISSUE acceptance scenario: FedKEMF, dropout 0.3, a deadline,
        5 rounds — completes, aggregates only survivors, and the history
        carries participation/failure/virtual-time records."""
        cfg = _config(
            rounds=5,
            faults="dropout=0.3,straggler=0.4,slowdown=3",
            deadline=3600.0,  # generous: deadline path on, all survivors fit
            fusion="weight-average",  # keep the smoke run fast
        )
        algo = FedKEMF(micro_model_fn, micro_fed, cfg, local_model_fns=micro_model_fn)
        assert algo.runtime.simulates_time
        history = algo.run()
        assert history.num_rounds == 5
        reasons = set(history.total_failures())
        assert reasons <= {"dropout", "uplink-lost", "deadline", "surplus"}
        assert sum(r.num_failed for r in history.records) > 0  # faults actually fired
        for r in history.records:
            assert r.num_selected == r.num_sampled - r.num_failed
            assert r.num_selected >= 1  # someone survived every round here
            assert r.sim_time_s > 0.0
        assert history.participation.min() >= 1

    def test_impossible_deadline_rejects_everyone(self, micro_fed, micro_model_fn):
        cfg = _config(
            rounds=1, faults="straggler=0.9,slowdown=4", deadline=1e-9,
            fusion="weight-average",
        )
        algo = FedKEMF(micro_model_fn, micro_fed, cfg, local_model_fns=micro_model_fn)
        before = {k: v.copy() for k, v in algo.global_model.state_dict().items()}
        history = algo.run()
        r = history.records[0]
        assert r.num_selected == 0
        assert set(r.failures.values()) <= {"deadline", "dropout", "uplink-lost"}
        assert r.sim_time_s == pytest.approx(1e-9)  # server waited out the deadline
        after = algo.global_model.state_dict()
        for k in before:  # nothing aggregated → server model untouched
            np.testing.assert_array_equal(before[k], after[k])


class TestVirtualClock:
    def test_monotone_in_slowdown_and_delay(self, micro_model_fn):
        profiles = sample_device_profiles(4, seed=0)
        clock = VirtualClock(profiles=profiles, batch_input_shape=(16, 1, 8, 8))
        model = micro_model_fn()
        base = clock.client_time(0, model, steps=10, payload_bytes=10_000)
        slowed = clock.client_time(0, model, steps=10, payload_bytes=10_000, slowdown=3.0)
        delayed = clock.client_time(
            0, model, steps=10, payload_bytes=10_000, extra_delay_s=5.0
        )
        assert base > 0
        assert slowed > base
        assert delayed == pytest.approx(base + 5.0)

    def test_flops_cached_per_architecture(self, micro_model_fn):
        profiles = sample_device_profiles(2, seed=0)
        clock = VirtualClock(profiles=profiles, batch_input_shape=(16, 1, 8, 8))
        model = micro_model_fn()
        clock.client_time(0, model, steps=5, payload_bytes=1000)
        clock.client_time(1, model, steps=5, payload_bytes=1000)
        assert len(clock._flops_cache) == 1


class TestImportOrder:
    """repro.runtime and repro.fl import each other's submodules lazily,
    and repro.core.mutual imports repro.fl.trainer at module top while
    repro.fl.algorithms imports repro.core; every import order must work
    from a cold interpreter."""

    @pytest.mark.parametrize(
        "stmt",
        [
            "import repro.runtime; import repro.fl.algorithms",
            "import repro.fl.algorithms; import repro.runtime",
            "from repro.fl.algorithms import FLConfig; FLConfig(faults='dropout=0.1')",
            "import repro.core",
            "import repro.core.mutual; import repro.fl",
            "import repro.fl; import repro.core.mutual",
        ],
    )
    def test_cold_import(self, stmt):
        proc = subprocess.run(
            [sys.executable, "-c", stmt],
            capture_output=True,
            text=True,
            env=os.environ.copy(),
        )
        assert proc.returncode == 0, proc.stderr
