"""Executor contract: the serial backend and the process pool, under both
pool lifetimes, return identical updates, in task order, for pure work
functions."""

from __future__ import annotations

import functools
import logging
import pickle

import numpy as np
import pytest

from repro.runtime import executors as ex_mod
from repro.runtime.executors import (
    BatchedExecutor,
    ClientUpdate,
    ParallelExecutor,
    PersistentParallelExecutor,
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


# The pool's lifetime follows from whether the round's work closure pickles:
# shipped to a run-long pool, or inherited by a pool forked for the round.
LIFETIMES = {"shipped": lambda work: work, "forked": _unpicklable}


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
        with pytest.raises(ValueError):
            PersistentParallelExecutor(0)

    def test_explicit_kind(self):
        assert isinstance(make_executor(4, "serial"), SerialExecutor)
        assert isinstance(make_executor(4, "parallel"), ParallelExecutor)
        ex = make_executor(4, "persistent")
        assert isinstance(ex, PersistentParallelExecutor)
        assert ex.workers == 4
        # workers < 2 with an explicit parallel kind means "use all cores"
        assert make_executor(0, "persistent").workers >= 1
        with pytest.raises(ValueError):
            make_executor(2, "threads")

    @needs_fork
    def test_pool_spellings_are_one_executor(self, micro_fed, micro_model_fn):
        from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig

        pools = [make_executor(4), make_executor(4, "parallel"), make_executor(4, "persistent")]
        assert len({type(ex) for ex in pools}) == 1
        assert ParallelExecutor is PersistentParallelExecutor

        def fingerprint(**runtime):
            cfg = FLConfig(
                rounds=2, sample_ratio=0.5, local_epochs=1, batch_size=16, seed=0, **runtime
            )
            return ALGORITHM_REGISTRY.get("fedavg")(micro_model_fn, micro_fed, cfg).run().fingerprint()

        serial = fingerprint()
        assert fingerprint(workers=4) == serial
        assert fingerprint(workers=4, executor="parallel") == serial
        assert fingerprint(workers=4, executor="persistent") == serial


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

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_parallel_supports_closures(self):
        """The work fn crosses into workers via fork inheritance, so an
        unpicklable closure (the common case: a bound method over a model)
        must work."""
        scale = np.float64(3.0)

        def work(cid, payload):
            return ClientUpdate(client_id=cid, states={"s": {"x": payload["x"] * scale}})

        tasks = _tasks(4)
        updates = ParallelExecutor(2).run_round(work, tasks)
        for (cid, payload), u in zip(tasks, updates):
            np.testing.assert_array_equal(u.states["s"]["x"], payload["x"] * 3.0)

    def test_parallel_degenerate_rounds_run_serial(self):
        # single task: not worth forking; must still produce the result
        updates = ParallelExecutor(4).run_round(_square_work, _tasks(1))
        assert len(updates) == 1 and updates[0].client_id == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_worker_exception_propagates(self):
        def boom(cid, payload):
            raise RuntimeError(f"client {cid} exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            ParallelExecutor(2).run_round(boom, _tasks(4))


def _scaled_work(scale, cid, payload):
    return ClientUpdate(client_id=cid, states={"s": {"x": payload["x"] * scale}})


def _raise_work(what, cid, payload):
    raise RuntimeError(f"client {cid} {what}")


@needs_fork
class TestNestedExecutors:
    def test_fork_work_stack_is_reentrant(self):
        """Regression: the module-level work registry used to be a single
        slot, so an executor used *inside* another round's work saw (and
        then clobbered) the outer closure. The stack makes it reentrant."""
        inner_tasks = _tasks(3)

        def outer(cid, payload):
            inner = ParallelExecutor(2).run_round(
                functools.partial(_scaled_work, float(cid + 1)), inner_tasks
            )
            total = sum(u.states["s"]["x"].sum() for u in inner)
            return ClientUpdate(client_id=cid, weight=float(total))

        tasks = _tasks(2)
        got = ParallelExecutor(2).run_round(outer, tasks)
        want = SerialExecutor().run_round(outer, tasks)
        assert [u.weight for u in got] == [u.weight for u in want]
        assert ex_mod._FORK_WORK == []  # every frame popped on the way out

    def test_stack_clean_after_worker_exception(self):
        def boom(cid, payload):
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError):
            ParallelExecutor(2).run_round(boom, _tasks(4))
        assert ex_mod._FORK_WORK == []


@needs_fork
class TestPersistentExecutor:
    def test_matches_serial_and_ships(self):
        tasks = _tasks()
        serial = SerialExecutor().run_round(_square_work, tasks)
        ex = PersistentParallelExecutor(4)
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

    def test_unpicklable_work_falls_back_to_fork(self):
        unpicklable = _unpicklable(functools.partial(_scaled_work, np.float64(2.0)))
        ex = PersistentParallelExecutor(2)
        try:
            tasks = _tasks(4)
            got = ex.run_round(unpicklable, tasks)
            assert ex.last_round_mode == "forked"
            for (cid, payload), u in zip(tasks, got):
                np.testing.assert_array_equal(u.states["s"]["x"], payload["x"] * 2.0)
        finally:
            ex.close()

    def test_degenerate_round_runs_serial(self):
        ex = PersistentParallelExecutor(4)
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
        ex = PersistentParallelExecutor(3)
        try:
            ex.run_round(_square_work, _tasks(4))  # pool is live now
            clone = pickle.loads(pickle.dumps(ex))
            assert clone.workers == 3
            assert clone._pool is None
            clone.close()
        finally:
            ex.close()

    def test_close_rearms(self):
        ex = PersistentParallelExecutor(2)
        tasks = _tasks(4)
        ex.run_round(_square_work, tasks)
        ex.close()
        assert ex._pool is None
        got = ex.run_round(_square_work, tasks)  # forks a fresh pool
        assert ex.last_round_mode == "shipped" and len(got) == len(tasks)
        ex.close()


@needs_fork
@pytest.mark.parametrize("lifetime", sorted(LIFETIMES))
class TestPoolLifetimes:
    def test_matches_serial_every_round(self, lifetime):
        work = LIFETIMES[lifetime](_square_work)
        tasks = _tasks()
        serial = SerialExecutor().run_round(_square_work, tasks)
        with ParallelExecutor(4) as ex:
            for _round in range(2):
                got = ex.run_round(work, tasks)
                assert ex.last_round_mode == lifetime
                assert ex.last_round_failures == {}
                # shipped: the pool outlives the round; forked: it does not
                assert (ex._pool is not None) == (lifetime == "shipped")
                assert [u.client_id for u in got] == [u.client_id for u in serial]
                for s, p in zip(serial, got):
                    np.testing.assert_array_equal(
                        s.states["state"]["x"], p.states["state"]["x"]
                    )
                    assert s.weight == p.weight and s.steps == p.steps
        assert ex._pool is None and ex_mod._FORK_WORK == []

    def test_work_exception_propagates_and_leaves_nothing_behind(self, lifetime):
        work = LIFETIMES[lifetime](functools.partial(_raise_work, "exploded"))
        with ParallelExecutor(2) as ex:
            with pytest.raises(RuntimeError, match="exploded"):
                ex.run_round(work, _tasks(4))
            assert ex.last_round_mode == lifetime
            assert ex._pool is None  # abandoned, not reused
            assert ex_mod._FORK_WORK == []
            # and the executor re-arms for the next round
            assert len(ex.run_round(LIFETIMES[lifetime](_square_work), _tasks(4))) == 4

    def test_fork_failure_runs_the_round_serially(self, lifetime, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(ex_mod, "_PoolExecutor", no_pool)
        tasks = _tasks(4)
        with ParallelExecutor(2) as ex:
            got = ex.run_round(LIFETIMES[lifetime](_square_work), tasks)
        assert [u.client_id for u in got] == [cid for cid, _ in tasks]
        assert ex.last_round_failures == {} and ex_mod._FORK_WORK == []


@needs_fork
class TestUnpicklableSnapshotIsLoud:
    def test_warns_once_per_executor_with_the_reason(self):
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        ex_mod.log.addHandler(handler)
        try:
            with ParallelExecutor(2) as ex:
                for _round in range(3):
                    ex.run_round(_unpicklable(_square_work), _tasks(4))
                    assert ex.last_round_mode == "forked"
                ex.run_round(_square_work, _tasks(4))
                assert ex.last_round_mode == "shipped"
        finally:
            ex_mod.log.removeHandler(handler)
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        # the exception type and its message, not just "fell back"
        assert "PicklingError" in message or "AttributeError" in message
        assert "lambda" in message


@needs_fork
class TestPersistentBufferedFallback:
    """An unpicklable algorithm snapshot (local-closure model factory) on
    the persistent executor must degrade to the per-round fork path — and
    the buffered-aggregation server state riding on top of the run (the
    update buffer, staleness bookkeeping) must come through untouched."""

    def _run(self, fed, model_fn, executor):
        from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig

        cfg = FLConfig(
            rounds=3,
            sample_ratio=0.5,
            local_epochs=1,
            batch_size=16,
            seed=1,
            faults="slowdown=10,straggler=0.4",
            aggregation="buffered",
            buffer_size=2,
            staleness_alpha=0.5,
            max_staleness=6,
            executor=executor,
            workers=2,
        )
        algo = ALGORITHM_REGISTRY.get("fedavg")(model_fn, fed, cfg)
        try:
            history = algo.run()
        finally:
            algo.runtime.executor.close()
        return algo, history

    def test_unpicklable_algo_keeps_buffer_semantics(self, micro_fed):
        from repro.nn.models import build_model

        def model_fn():  # local closure: defeats pickle-by-reference
            return build_model(
                "mlp", num_classes=4, in_channels=1, image_size=8,
                width_mult=0.25, seed=1,
            )

        with pytest.raises(Exception):
            pickle.dumps(model_fn)  # the premise: the snapshot cannot ship

        ref_algo, ref = self._run(micro_fed, model_fn, "serial")
        algo, got = self._run(micro_fed, model_fn, "persistent")
        # Shipping failed silently-gracefully: the round ran via fork.
        assert algo.runtime.executor.last_round_mode == "forked"
        # The buffered server regime is intact: identical history (the
        # fingerprint covers per-round merges), identical staleness mix,
        # and the straggler plan really did produce stale merges to keep.
        assert got.fingerprint() == ref.fingerprint()
        assert got.staleness_histogram() == ref.staleness_histogram()
        assert any(s > 0 for s in got.staleness_histogram())
        ref_state = ref_algo.global_model.state_dict()
        state = algo.global_model.state_dict()
        for k in ref_state:
            np.testing.assert_array_equal(ref_state[k], state[k], err_msg=k)
