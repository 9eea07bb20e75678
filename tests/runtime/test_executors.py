"""Executor contract: the serial backend and the process pool return
identical updates, in task order, for pure work functions; the pool refuses
work that does not pickle."""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest

from repro.runtime import executors as ex_mod
from repro.runtime.executors import (
    BatchedExecutor,
    ClientUpdate,
    ParallelExecutor,
    SerialExecutor,
    fork_available,
    make_executor,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork start method")


def _square_work(cid, payload):
    return ClientUpdate(
        client_id=cid,
        states={"state": {"x": payload["x"] ** 2}},
        weight=float(cid),
        steps=int(payload["x"].size),
    )


def _tasks(n=6):
    rng = np.random.default_rng(0)
    return [(cid, {"x": rng.normal(size=(3, 3))}) for cid in range(n)]


def _unpicklable(work):
    """``work`` behind a lambda, which defeats pickle-by-reference."""
    wrapped = functools.partial(lambda inner, cid, payload: inner(cid, payload), work)
    with pytest.raises(Exception):
        pickle.dumps(wrapped)
    return wrapped


class TestMakeExecutor:
    def test_mapping(self):
        # In process, the default stacks fully batched cohorts only.
        for workers in (0, 1):
            ex = make_executor(workers)
            assert isinstance(ex, BatchedExecutor) and ex.fully_batched_only
            assert ex.name == "BatchedExecutor(fully_batched_only)"
        assert not make_executor(0, "batched").fully_batched_only
        assert make_executor(0, "batched").name == "BatchedExecutor"
        ex = make_executor(4)
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_executor(-1)
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_explicit_kind(self):
        assert isinstance(make_executor(4, "serial"), SerialExecutor)
        assert isinstance(make_executor(4, "parallel"), ParallelExecutor)
        assert make_executor(4, "parallel").workers == 4
        # workers < 2 with an explicit parallel kind means "use all cores"
        assert make_executor(0, "parallel").workers >= 1
        for kind in ("threads", "persistent"):
            with pytest.raises(ValueError, match="options: .*'serial', 'parallel', 'batched'"):
                make_executor(2, kind)

    @needs_fork
    def test_pool_spellings_are_one_executor(self, micro_fed, micro_model_fn):
        from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig

        pools = [make_executor(4), make_executor(4, "parallel")]
        assert {type(ex) for ex in pools} == {ParallelExecutor}

        def fingerprint(**runtime):
            cfg = FLConfig(
                rounds=2, sample_ratio=0.5, local_epochs=1, batch_size=16, seed=0, **runtime
            )
            return ALGORITHM_REGISTRY.get("fedavg")(micro_model_fn, micro_fed, cfg).run().fingerprint()

        serial = fingerprint()
        assert fingerprint(workers=4) == serial
        assert fingerprint(workers=4, executor="parallel") == serial


class TestRunRound:
    def test_serial_order(self):
        tasks = _tasks()
        updates = SerialExecutor().run_round(_square_work, tasks)
        assert [u.client_id for u in updates] == [cid for cid, _ in tasks]

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_parallel_matches_serial(self):
        tasks = _tasks()
        serial = SerialExecutor().run_round(_square_work, tasks)
        parallel = ParallelExecutor(4).run_round(_square_work, tasks)
        assert [u.client_id for u in parallel] == [u.client_id for u in serial]
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.states["state"]["x"], p.states["state"]["x"])
            assert s.weight == p.weight and s.steps == p.steps

    def test_parallel_degenerate_rounds_run_serial(self):
        # single task: not worth forking; must still produce the result
        updates = ParallelExecutor(4).run_round(_square_work, _tasks(1))
        assert len(updates) == 1 and updates[0].client_id == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="exploded"):
            ParallelExecutor(2).run_round(functools.partial(_raise_work, "exploded"), _tasks(4))


def _scaled_work(scale, cid, payload):
    return ClientUpdate(client_id=cid, states={"s": {"x": payload["x"] * scale}})


def _raise_work(what, cid, payload):
    raise RuntimeError(f"client {cid} {what}")


@needs_fork
class TestPersistentExecutor:
    def test_matches_serial_and_ships(self):
        tasks = _tasks()
        serial = SerialExecutor().run_round(_square_work, tasks)
        ex = ParallelExecutor(4)
        try:
            for _round in range(3):  # pool reused across rounds
                got = ex.run_round(_square_work, tasks)
                assert ex.last_round_mode == "shipped"
                for s, p in zip(serial, got):
                    np.testing.assert_array_equal(
                        s.states["state"]["x"], p.states["state"]["x"]
                    )
                    assert s.weight == p.weight and s.steps == p.steps
        finally:
            ex.close()

    def test_unpicklable_work_is_refused_before_forking(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("forked a pool for work that does not pickle")

        monkeypatch.setattr(ex_mod, "_PoolExecutor", no_pool)
        unpicklable = _unpicklable(functools.partial(_scaled_work, np.float64(2.0)))
        ex = ParallelExecutor(2)
        with pytest.raises(TypeError, match="does not pickle.*functools.partial") as err:
            ex.run_round(unpicklable, _tasks(4))
        assert "lambda" in str(err.value)  # names the work
        assert err.value.__cause__ is not None  # chained from the pickling error
        assert ex._pool is None

    def test_degenerate_round_runs_serial(self):
        ex = ParallelExecutor(4)
        try:
            updates = ex.run_round(_square_work, _tasks(1))
            assert ex.last_round_mode == "serial"
            assert len(updates) == 1 and updates[0].client_id == 0
            assert ex._pool is None  # never forked a pool for it
        finally:
            ex.close()

    def test_pickles_without_live_pool(self):
        """The executor rides along inside the shipped algorithm snapshot
        (reachable via algorithm.runtime.executor), so pickling it must
        drop the pool rather than explode on its locks/pipes."""
        ex = ParallelExecutor(3)
        try:
            ex.run_round(_square_work, _tasks(4))  # pool is live now
            clone = pickle.loads(pickle.dumps(ex))
            assert clone.workers == 3
            assert clone._pool is None
            clone.close()
        finally:
            ex.close()

    def test_close_rearms(self):
        ex = ParallelExecutor(2)
        tasks = _tasks(4)
        ex.run_round(_square_work, tasks)
        ex.close()
        assert ex._pool is None
        got = ex.run_round(_square_work, tasks)  # forks a fresh pool
        assert ex.last_round_mode == "shipped" and len(got) == len(tasks)
        ex.close()


@needs_fork
class TestPoolLifetime:
    def test_matches_serial_every_round(self):
        tasks = _tasks()
        serial = SerialExecutor().run_round(_square_work, tasks)
        with ParallelExecutor(4) as ex:
            for _round in range(2):
                got = ex.run_round(_square_work, tasks)
                assert ex.last_round_mode == "shipped"
                assert ex.last_round_failures == {}
                assert ex._pool is not None  # the pool outlives the round
                assert [u.client_id for u in got] == [u.client_id for u in serial]
                for s, p in zip(serial, got):
                    np.testing.assert_array_equal(
                        s.states["state"]["x"], p.states["state"]["x"]
                    )
                    assert s.weight == p.weight and s.steps == p.steps
        assert ex._pool is None

    def test_work_exception_propagates_and_leaves_nothing_behind(self):
        with ParallelExecutor(2) as ex:
            with pytest.raises(RuntimeError, match="exploded"):
                ex.run_round(functools.partial(_raise_work, "exploded"), _tasks(4))
            assert ex.last_round_mode == "shipped"
            assert ex._pool is None  # abandoned, not reused
            # and the executor re-arms for the next round
            assert len(ex.run_round(_square_work, _tasks(4))) == 4

    def test_fork_failure_runs_the_round_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(ex_mod, "_PoolExecutor", no_pool)
        tasks = _tasks(4)
        with ParallelExecutor(2) as ex:
            got = ex.run_round(_square_work, tasks)
        assert [u.client_id for u in got] == [cid for cid, _ in tasks]
        assert ex.last_round_failures == {}
