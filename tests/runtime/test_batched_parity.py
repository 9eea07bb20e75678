"""``--executor batched``: how the config selects it, how it orders a mixed
round, and Table 3's heterogeneous local models, where one cohort is part
stacked and part serial and must still replay the serial run bit for bit.
Batched ≡ serial for every registry algorithm is a cell of
``tests/fl/test_parity_matrix.py``."""

from __future__ import annotations

import functools

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
from tests.helpers import signature


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


class TestFedKEMFParity:
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
        runs = {}
        for executor in ("serial", "batched"):
            cfg = _config(executor=executor, sample_ratio=1.0)
            algo = FedKEMF(know_fn, micro_fed_equal, cfg, local_model_fns=local_fns)
            runs[executor] = signature(algo, algo.run())
        assert algo.runtime.executor.last_round_mode == "mixed"
        assert runs["batched"] == runs["serial"]


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
