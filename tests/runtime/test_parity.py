"""The acceptance property of the execution runtime: a parallel run is
numerically identical to the serial reference — same histories, same final
models — for both FedAvg and FedKEMF, on every executor backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FedKEMF, local_model_builders, plan_multi_model
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.runtime.executors import (
    ParallelExecutor,
    PersistentParallelExecutor,
    fork_available,
)


def _assert_histories_identical(a, b):
    assert a.num_rounds == b.num_rounds
    for ra, rb in zip(a.records, b.records):
        assert ra.accuracy == rb.accuracy  # bit-identical, not allclose
        assert ra.loss == rb.loss
        assert ra.cum_bytes == rb.cum_bytes
        assert ra.round_bytes == rb.round_bytes
        assert ra.num_selected == rb.num_selected
        assert ra.num_sampled == rb.num_sampled
        assert ra.num_failed == rb.num_failed
        assert ra.failures == rb.failures
        assert ra.sim_time_s == rb.sim_time_s


def _assert_models_identical(m_a, m_b):
    sa, sb = m_a.state_dict(), m_b.state_dict()
    assert list(sa) == list(sb)
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)


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


needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork start method")


@needs_fork
class TestSerialParallelParity:
    def test_fedavg(self, micro_fed, micro_model_fn):
        serial = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed, _config(workers=0)
        )
        parallel = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed, _config(workers=4)
        )
        assert isinstance(parallel.runtime.executor, ParallelExecutor)
        _assert_histories_identical(serial.run(), parallel.run())
        _assert_models_identical(serial.global_model, parallel.global_model)
        assert serial.meter.total == parallel.meter.total

    def test_fedkemf(self, micro_fed, micro_model_fn):
        runs = {}
        for workers in (0, 4):
            algo = FedKEMF(
                micro_model_fn, micro_fed, _config(workers=workers),
                local_model_fns=micro_model_fn,
            )
            runs[workers] = (algo.run(), algo)
        _assert_histories_identical(runs[0][0], runs[4][0])
        _assert_models_identical(runs[0][1].global_model, runs[4][1].global_model)
        # persistent on-device models must round-trip through the workers
        for m_s, m_p in zip(
            runs[0][1].local_models_for_eval(), runs[4][1].local_models_for_eval()
        ):
            _assert_models_identical(m_s, m_p)

    def test_fedavg_parity_under_faults(self, micro_fed, micro_model_fn):
        cfg = dict(faults="dropout=0.3,loss=0.2,straggler=0.5,slowdown=3")
        serial = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed, _config(workers=0, **cfg)
        )
        parallel = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed, _config(workers=4, **cfg)
        )
        _assert_histories_identical(serial.run(), parallel.run())
        _assert_models_identical(serial.global_model, parallel.global_model)


@needs_fork
class TestThreeWayParity:
    """Serial vs the pool under both lifetimes: bit-identical histories and
    models under the same seed. The picklable factory must really be
    shipped to the run-long pool (not silently forked per round), and the
    closure factory — which cannot pickle — must really be forked."""

    def _check(self, algo_factory, model_fn):
        def closure_fn():  # local closure: defeats pickle-by-reference
            return model_fn()

        kinds = {
            "serial": ("serial", model_fn, None),
            "parallel": ("parallel", closure_fn, "forked"),
            "persistent": ("persistent", model_fn, "shipped"),
        }
        runs = {}
        for kind, (executor, fn, mode) in kinds.items():
            algo = algo_factory(_config(workers=4, executor=executor), fn)
            runs[kind] = (algo.run(), algo)
            if mode is not None:
                assert isinstance(algo.runtime.executor, ParallelExecutor)
                assert algo.runtime.executor.last_round_mode == mode
        assert ParallelExecutor is PersistentParallelExecutor
        for kind in ("parallel", "persistent"):
            _assert_histories_identical(runs["serial"][0], runs[kind][0])
            _assert_models_identical(
                runs["serial"][1].global_model, runs[kind][1].global_model
            )
            assert runs["serial"][1].meter.total == runs[kind][1].meter.total
        return runs

    def test_fedavg(self, micro_fed, micro_model_fn):
        self._check(
            lambda cfg, fn: ALGORITHM_REGISTRY.get("fedavg")(fn, micro_fed, cfg),
            micro_model_fn,
        )

    def test_fedkemf(self, micro_fed, micro_model_fn):
        runs = self._check(
            lambda cfg, fn: FedKEMF(fn, micro_fed, cfg, local_model_fns=fn),
            micro_model_fn,
        )
        # persistent on-device models must round-trip through the pool too
        for kind in ("parallel", "persistent"):
            for m_s, m_p in zip(
                runs["serial"][1].local_models_for_eval(),
                runs[kind][1].local_models_for_eval(),
            ):
                _assert_models_identical(m_s, m_p)

    def test_multi_model_fedkemf_is_shipped(self, micro_fed, micro_model_fn):
        """Table 3's heterogeneous deployment: ``local_model_builders``
        returns picklable builders, so the run takes the run-long pool."""
        shape = dict(num_classes=4, in_channels=1, image_size=8, width_mult=0.125)
        plan = plan_multi_model(micro_fed.num_clients, seed=0, **shape)
        assert len(set(plan.assignment)) > 1
        builders = local_model_builders(plan, seed=0, **shape)
        runs = {}
        for workers in (0, 2):
            algo = FedKEMF(
                micro_model_fn, micro_fed, _config(workers=workers), local_model_fns=builders
            )
            runs[workers] = (algo.run(), algo)
        assert runs[2][1].runtime.executor.last_round_mode == "shipped"
        assert runs[0][0].fingerprint() == runs[2][0].fingerprint()
        _assert_models_identical(runs[0][1].global_model, runs[2][1].global_model)


class TestRuntimeMeta:
    def test_history_records_runtime(self, micro_fed, micro_model_fn):
        algo = ALGORITHM_REGISTRY.get("fedavg")(micro_model_fn, micro_fed, _config())
        history = algo.run()
        rt = history.meta["runtime"]
        assert rt["executor"] == "BatchedExecutor(fully_batched_only)"
        assert rt["workers"] == 1
        assert rt["faults"] is None and rt["deadline"] is None
        # the explicit kinds record their own policy, not the default's
        for kind, name in (("serial", "SerialExecutor"), ("batched", "BatchedExecutor")):
            explicit = ALGORITHM_REGISTRY.get("fedavg")(
                micro_model_fn, micro_fed, _config(rounds=1, executor=kind)
            )
            assert explicit.run().meta["runtime"]["executor"] == name
