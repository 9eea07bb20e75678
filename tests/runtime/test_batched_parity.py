"""Acceptance property of ``--executor batched``: a batched run replays the
serial reference bit-identically — same ``RunHistory.fingerprint()``, same
final global model, same on-device local models — for FedAvg and FedKEMF,
with and without fault injection, whether the stacked path engages or falls
back."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import FedKEMF
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.nn.models import build_model
from repro.runtime.executors import (
    EXECUTOR_KINDS,
    BatchedExecutor,
    ClientUpdate,
    SerialExecutor,
    make_executor,
)


def _config(**overrides):
    base = dict(
        rounds=2,
        sample_ratio=0.5,
        local_epochs=1,
        batch_size=16,
        lr=0.05,
        seed=0,
        distill_epochs=1,
    )
    base.update(overrides)
    return FLConfig(**base)


def _assert_same_run(algo_serial, algo_batched):
    h_serial = algo_serial.run()
    h_batched = algo_batched.run()
    assert h_serial.fingerprint() == h_batched.fingerprint()
    sa = algo_serial.global_model.state_dict()
    sb = algo_batched.global_model.state_dict()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)


class TestMakeExecutor:
    def test_kind_registered(self):
        assert "batched" in EXECUTOR_KINDS
        ex = make_executor(kind="batched")
        assert isinstance(ex, BatchedExecutor)
        assert ex.workers == 1

    def test_config_selects_batched(self, micro_fed_equal, micro_model_fn):
        algo = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed_equal, _config(executor="batched")
        )
        assert isinstance(algo.runtime.executor, BatchedExecutor)


class TestFedAvgParity:
    def test_equal_shards_engage_stacked_path(self, micro_fed_equal, micro_model_fn):
        serial = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed_equal, _config(executor="serial")
        )
        batched = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed_equal, _config(executor="batched")
        )
        _assert_same_run(serial, batched)
        # Homogeneous models + equal shards: the whole cohort must stack.
        assert batched.runtime.executor.last_round_mode == "batched"

    def test_ragged_shards_fall_back(self, micro_fed, micro_model_fn):
        # Dirichlet shards are unequal, so grouping yields singletons; the
        # executor must still reproduce serial bits through its fallback.
        serial = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed, _config(executor="serial")
        )
        batched = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed, _config(executor="batched")
        )
        _assert_same_run(serial, batched)

    def test_with_faults(self, micro_fed_equal, micro_model_fn):
        faults = "dropout=0.3,loss=0.1"
        serial = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed_equal, _config(faults=faults, executor="serial")
        )
        batched = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed_equal, _config(faults=faults, executor="batched")
        )
        _assert_same_run(serial, batched)

    def test_custom_client_work_falls_back(self, micro_fed_equal, micro_model_fn):
        # FedProx overrides client_work (proximal grad hook) — the default
        # batched hook must decline rather than silently drop the hook.
        serial = ALGORITHM_REGISTRY.get("fedprox")(
            micro_model_fn, micro_fed_equal, _config(executor="serial")
        )
        batched = ALGORITHM_REGISTRY.get("fedprox")(
            micro_model_fn, micro_fed_equal, _config(executor="batched")
        )
        assert batched.client_work_batched(0, []) is None
        _assert_same_run(serial, batched)
        assert batched.runtime.executor.last_round_mode == "serial"


class TestFedKEMFParity:
    def _pair(self, fed, know_fn, local_fns, **cfg_overrides):
        serial = FedKEMF(
            know_fn, fed, _config(executor="serial", **cfg_overrides), local_model_fns=local_fns
        )
        batched = FedKEMF(
            know_fn, fed, _config(executor="batched", **cfg_overrides),
            local_model_fns=local_fns,
        )
        return serial, batched

    def _assert_local_models_equal(self, serial, batched):
        for ms, mb in zip(serial.local_models, batched.local_models):
            ss, sb = ms.state_dict(), mb.state_dict()
            for k in ss:
                np.testing.assert_array_equal(ss[k], sb[k], err_msg=k)

    def test_equal_shards_engage_stacked_path(self, micro_fed_equal, micro_model_fn):
        serial, batched = self._pair(micro_fed_equal, micro_model_fn, micro_model_fn)
        _assert_same_run(serial, batched)
        assert batched.runtime.executor.last_round_mode == "batched"
        self._assert_local_models_equal(serial, batched)

    def test_with_faults(self, micro_fed_equal, micro_model_fn):
        faults = "dropout=0.3,loss=0.1"
        serial, batched = self._pair(
            micro_fed_equal, micro_model_fn, micro_model_fn, faults=faults
        )
        _assert_same_run(serial, batched)
        self._assert_local_models_equal(serial, batched)

    def test_heterogeneous_local_models_mixed_round(self, micro_fed_equal):
        # Table-3 setting: clients deploy different local architectures.
        # Five MLP clients form one stack; the lone CNN client runs serial —
        # the round is "mixed" and still bit-identical.
        know_fn = functools.partial(
            build_model, "mlp", num_classes=4, in_channels=1,
            image_size=8, width_mult=0.25, seed=1,
        )
        cnn_fn = functools.partial(
            build_model, "cnn-2", num_classes=4, in_channels=1,
            image_size=8, width_mult=0.25, seed=2,
        )
        local_fns = [know_fn] * 5 + [cnn_fn]
        serial, batched = self._pair(
            micro_fed_equal, know_fn, local_fns, sample_ratio=1.0
        )
        _assert_same_run(serial, batched)
        assert batched.runtime.executor.last_round_mode == "mixed"
        self._assert_local_models_equal(serial, batched)

    def test_ragged_shards_fall_back(self, micro_fed, micro_model_fn):
        serial, batched = self._pair(micro_fed, micro_model_fn, micro_model_fn)
        _assert_same_run(serial, batched)
        self._assert_local_models_equal(serial, batched)


class TestBatchedExecutorUnit:
    def test_plain_work_fn_runs_serially(self):
        # Work closures that are not the algorithm-layer partial (no
        # __self__ to unwrap) must run through the serial path untouched.
        calls = []

        def work(cid, payload):
            calls.append(cid)
            return ClientUpdate(client_id=cid)

        ex = BatchedExecutor()
        updates = ex.run_round(work, [(3, {}), (1, {})])
        assert [u.client_id for u in updates] == [3, 1]
        assert calls == [3, 1]
        assert ex.last_round_mode == "serial"
        assert ex.last_round_failures == {}

    def test_results_in_task_order_when_mixed(self):
        class FakeAlgo:
            def client_work(self, round_idx, cid, payload):
                return ClientUpdate(client_id=cid, weight=-1.0)

            def client_work_batched(self, round_idx, tasks):
                # Handle every even client, decline the odd ones.
                return {
                    cid: ClientUpdate(client_id=cid, weight=2.0)
                    for cid, _ in tasks
                    if cid % 2 == 0
                }

        algo = FakeAlgo()
        work = functools.partial(algo.client_work, 0)
        ex = BatchedExecutor()
        updates = ex.run_round(work, [(0, {}), (1, {}), (2, {})])
        assert [u.client_id for u in updates] == [0, 1, 2]
        assert [u.weight for u in updates] == [2.0, -1.0, 2.0]
        assert ex.last_round_mode == "mixed"

    def test_context_manager_protocol(self):
        with make_executor(kind="batched") as ex:
            assert isinstance(ex, BatchedExecutor)
        with pytest.raises(ValueError):
            make_executor(kind="bogus")

    def test_serial_reference_unchanged(self):
        # The oracle the batched path is measured against.
        ex = SerialExecutor()
        updates = ex.run_round(
            lambda cid, payload: ClientUpdate(client_id=cid), [(5, {})]
        )
        assert [u.client_id for u in updates] == [5]
