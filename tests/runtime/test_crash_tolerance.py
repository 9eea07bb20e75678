"""Crash tolerance: a worker that dies mid-round must not kill the run.

The injection is a task that hard-exits its worker process (``os._exit`` —
no exception, no cleanup, exactly what an OOM kill looks like to the pool).
The recovery ladder must finish the round with the healthy clients, report
the poison client as ``"worker-crash"``, and keep later rounds working on a
re-armed pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.fl.algorithms.base import FLConfig
from repro.fl.algorithms.fedavg import FedAvg
from repro.runtime.executors import (
    WORKER_CRASH,
    ClientUpdate,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    fork_available,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork start method")

# Tight budgets so the deterministic poison task is attributed in
# milliseconds: isolate immediately, two attempts, near-zero backoff.
FAST_RETRY = RetryPolicy(max_attempts=2, backoff_s=0.001, isolate_after=1)

CRASH_CID = 2


def _crashing_work(cid, payload):
    if cid == CRASH_CID:
        os._exit(1)  # simulate an OOM-killed / segfaulted worker
    return ClientUpdate(client_id=cid, states={"s": {"x": payload["x"] + 1.0}})


def _healthy_work(cid, payload):
    return ClientUpdate(client_id=cid, states={"s": {"x": payload["x"] + 1.0}})


def _tasks(n=5):
    rng = np.random.default_rng(0)
    return [(cid, {"x": rng.normal(size=(2, 2))}) for cid in range(n)]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(isolate_after=0)

    def test_defaults_are_bounded(self):
        p = RetryPolicy()
        assert p.max_attempts >= 1


def _explode(cid, payload):
    raise RuntimeError(f"client {cid} exploded")


@needs_fork
class TestWorkerCrash:
    def test_round_survives_and_reports(self):
        tasks = _tasks(5)
        with ParallelExecutor(2, retry=FAST_RETRY) as ex:
            updates = ex.run_round(_crashing_work, tasks)
            assert ex.last_round_mode == "shipped"
            # every healthy client finished, in task order
            assert [u.client_id for u in updates] == [0, 1, 3, 4]
            for (cid, payload), u in zip(
                [t for t in tasks if t[0] != CRASH_CID], updates
            ):
                np.testing.assert_array_equal(u.states["s"]["x"], payload["x"] + 1.0)
            # the poison client is a failure, not an exception
            assert ex.last_round_failures == {CRASH_CID: WORKER_CRASH}

    def test_next_round_rearms(self):
        tasks = _tasks(5)
        with ParallelExecutor(2, retry=FAST_RETRY) as ex:
            ex.run_round(_crashing_work, tasks)
            clean = ex.run_round(_healthy_work, tasks)
            # recovery did not change how the executor hands out state
            assert ex.last_round_mode == "shipped"
            assert [u.client_id for u in clean] == [0, 1, 2, 3, 4]
            assert ex.last_round_failures == {}

    def test_work_exception_still_propagates(self):
        # Programming errors are not infrastructure failures: no retry, no
        # "worker-crash" masking — the exception reaches the caller.
        with ParallelExecutor(2, retry=FAST_RETRY) as ex:
            with pytest.raises(RuntimeError, match="exploded"):
                ex.run_round(_explode, _tasks(4))
            assert ex.last_round_mode == "shipped"


@needs_fork
class TestPersistentPoolRecovery:
    def test_shipped_mode_kept_after_crash(self):
        with ParallelExecutor(2, retry=FAST_RETRY) as ex:
            ex.run_round(_crashing_work, _tasks(5))
            assert ex.last_round_mode == "shipped"
            ex.run_round(_healthy_work, _tasks(5))
            # recovery kept shipping to the re-armed pool
            assert ex.last_round_mode == "shipped"


class TestContextManager:
    def test_serial_noop(self):
        with SerialExecutor() as ex:
            updates = ex.run_round(_healthy_work, _tasks(3))
        assert len(updates) == 3 and ex.last_round_failures == {}

    @needs_fork
    def test_persistent_pool_released(self):
        ex = ParallelExecutor(2)
        with ex:
            ex.run_round(_healthy_work, _tasks(4))
            assert ex._pool is not None
        assert ex._pool is None


class CrashyFedAvg(FedAvg):
    """FedAvg whose worker dies on one client in round 0. Module level, so
    the round snapshot pickles and the pool is shipped it."""

    name = "FedAvg"

    def client_work(self, round_idx, cid, payload):
        if round_idx == 0 and cid == self._crash_cid:
            os._exit(1)
        return super().client_work(round_idx, cid, payload)


@needs_fork
class TestAlgorithmLevelCrash:
    def test_run_records_worker_crash(self, micro_fed, micro_model_fn):
        """A worker death inside client work flows into the history like an
        injected fault: the round completes, the client is a failure."""
        cfg = FLConfig(
            rounds=2, sample_ratio=1.0, local_epochs=1, batch_size=16, seed=0, workers=2
        )
        algo = CrashyFedAvg(micro_model_fn, micro_fed, cfg)
        algo.runtime.executor = ParallelExecutor(2, retry=FAST_RETRY)
        algo._crash_cid = algo.select_clients(0)[0]
        history = algo.run()

        assert history.num_rounds == 2
        first = history.records[0]
        assert first.failures.get(algo._crash_cid) == WORKER_CRASH
        assert first.num_failed >= 1
        # crashed client was excluded from aggregation, not silently counted
        assert first.num_selected == first.num_sampled - first.num_failed
        # the second round recovered fully
        assert history.records[1].failures == {}
        assert history.total_failures() == {WORKER_CRASH: 1}
