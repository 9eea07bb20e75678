"""What the pool and the run meta promise beyond parity: work that does not
pickle is refused before a pool is forked, Table 3's heterogeneous local
models ship to the run-long pool, and the history records the runtime.
Serial ≡ pool for every registry algorithm is a cell of
``tests/fl/test_parity_matrix.py``."""

from __future__ import annotations

import pytest

from repro.core import FedKEMF, local_model_builders, plan_multi_model
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.runtime.executors import fork_available
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


needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork start method")


@needs_fork
class TestPool:
    @pytest.mark.parametrize("name", ["fedavg", "fedkemf"])
    def test_unpicklable_factory_is_refused(self, name, micro_fed, micro_model_fn):
        def closure_fn():  # local closure: defeats pickle-by-reference
            return micro_model_fn()

        cfg = _config(workers=4, executor="parallel")
        refused = ALGORITHM_REGISTRY.get(name)(closure_fn, micro_fed, cfg)
        with pytest.raises(TypeError, match="does not pickle"):
            refused.run()
        assert refused.runtime.executor._pool is None

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
            runs[workers] = signature(algo, algo.run())
        assert algo.runtime.executor.last_round_mode == "shipped"
        assert runs[0] == runs[2]


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
