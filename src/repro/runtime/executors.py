"""Client executors: how one round's per-client work actually runs.

Algorithms hand the runtime a *work function* ``work(client_id, payload) ->
ClientUpdate`` plus one ``(client_id, payload)`` task per participating
client. The executor decides the mechanics:

- :class:`SerialExecutor` runs tasks in-process, in order — the
  deterministic reference implementation;
- :class:`BatchedExecutor` asks the algorithm to fold homogeneous client
  cohorts into one stacked tensor program (:mod:`repro.nn.batched`) and
  runs whatever it declines serially — bit-identical results to
  :class:`SerialExecutor`, far fewer (much larger) kernel launches. With
  ``fully_batched_only`` it is the in-process default: it stacks only
  programs without conv, batch-norm or pool layers (tiny MLP cohorts) and
  leaves conv models to the serial call;
- :class:`ParallelExecutor` fans tasks out over a fork-based
  ``ProcessPoolExecutor`` that lives for the whole run and hands every
  worker the round-start state: the work closure is pickled **once per
  round** in the parent and each worker unpickles it at most once per
  round (``last_round_mode == "shipped"``). Work that does not pickle is
  refused with a :class:`TypeError` before any pool is forked; only
  picklable payloads/updates cross a pipe, and a pickle round-trip
  reproduces numpy state bit-exactly.

The contract that makes all backends bit-identical: ``work`` may *read*
algorithm state (the round-start snapshot) but must not rely on *writes* to
it — anything a client changes must come back inside the returned
:class:`ClientUpdate`, which the parent process applies.

**Crash tolerance.** A worker process dying mid-round (OOM kill, segfault,
``os._exit`` in client code) used to abort the whole run: the pool raises
``BrokenProcessPool`` for every in-flight future. :class:`ParallelExecutor`
drives each round through a recovery ladder:

1. retry unfinished tasks on a fresh pool, with bounded exponential
   backoff (:class:`RetryPolicy`);
2. after repeated pool breaks, *isolate*: submit one task at a time so the
   poison task is attributed precisely instead of taking neighbours down;
3. a task that exhausts its attempt budget is dropped from the results and
   reported in :attr:`ClientExecutor.last_round_failures` as
   ``"worker-crash"`` — the round loop folds it into the failures of the
   :class:`~repro.runtime.runtime.RoundOutcome` it returns;
4. if no pool can be created at all (fork failing with ``OSError``), the
   remaining tasks run serially in-process — the last resort that keeps
   the run alive when parallel execution is impossible.

Only *infrastructure* failures enter the ladder (a broken pool, an
unpicklable result). Ordinary exceptions raised by the work function itself
still propagate — those are programming errors, and masking them as client
failures would hide real bugs.

**Population-scale snapshots.** What the fork/pickle boundary actually
ships is bounded by the federation flavor. An eager
:class:`~repro.data.federated.FederatedDataset` carries every client's
sample arrays into the snapshot. A lazy federation
(:class:`~repro.data.lazy.LazyFederatedDataset`) pickles as its *recipe*
(world spec + partition assignment, no shard arrays, no trainer caches) —
each worker rematerializes the shards it is asked to train, bit-identically
to the parent's, because materialization is pure in ``(seed, client)``.
Workers therefore never receive pickled client data at scale, and the
snapshot stays O(model + assignment) no matter the population.

Like :mod:`repro.runtime.faults`, this module must not import
:mod:`repro.fl` (the algorithm layer imports us).
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import pickle
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "ClientUpdate",
    "ClientExecutor",
    "SerialExecutor",
    "BatchedExecutor",
    "ParallelExecutor",
    "RetryPolicy",
    "WORKER_CRASH",
    "EXECUTOR_KINDS",
    "make_executor",
]

# work(client_id, payload) -> ClientUpdate
WorkFn = Callable[[int, Mapping[str, Any]], "ClientUpdate"]
Task = "tuple[int, Mapping[str, Any]]"


@dataclass
class ClientUpdate:
    """Everything one client sends back (or changes) in a round.

    The update is the *only* channel from client work to the server: in
    parallel mode it is pickled across a process boundary, so every field
    must be plain data (numpy arrays, dataclasses of scalars).

    Attributes
    ----------
    client_id:
        The reporting client.
    states:
        Named uplink payloads in wire order (e.g. ``{"state": ...}`` for
        FedAvg, ``{"state": ..., "delta_control": ...}`` for SCAFFOLD).
        The server charges each through the channel before aggregating.
    weight:
        Aggregation weight (conventionally the client's shard size).
    steps:
        Local optimizer steps taken — drives the virtual-clock compute time.
    stats:
        The trainer's stats object (``TrainStats``/``MutualTrainStats``).
    extra:
        Algorithm-specific picklable server-side values (τ, new control
        variates, public-set logits, ...).
    local_state:
        Updated state of the client's *persistent on-device* model, for
        algorithms (FedKEMF, FedMD) whose clients keep models between
        rounds. The parent writes it back via
        ``FLAlgorithm.apply_client_update`` so parallel workers stay
        stateless.
    received:
        Parent-side only: the channel-decoded copies of ``states`` (what
        the server actually sees after the wire codec). Never set by client
        work.
    """

    client_id: int
    states: "dict[str, Mapping[str, Any]]" = field(default_factory=dict)
    weight: float = 1.0
    steps: int = 0
    stats: Any = None
    extra: "dict[str, Any]" = field(default_factory=dict)
    local_state: "Mapping[str, Any] | None" = None
    received: "dict[str, Mapping[str, Any]] | None" = None


# Failure reason recorded for clients whose task died with the worker and
# exhausted its retry budget. Flows through the round's RoundOutcome into its
# RoundRecord alongside the fault-injected reasons (dropout / uplink-lost / deadline).
WORKER_CRASH = "worker-crash"


@dataclass(frozen=True)
class RetryPolicy:
    """How a parallel executor recovers from infrastructure failures.

    Attributes
    ----------
    max_attempts:
        Total tries per task (first run + retries) before the client is
        reported as a ``"worker-crash"`` failure.
    backoff_s:
        Real-seconds sleep before re-arming a pool after a break; doubles
        on consecutive breaks (``backoff_s · 2^(breaks-1)``).
    isolate_after:
        Consecutive pool breaks before switching to isolation mode (one
        task per fresh pool) so the poison task is attributed precisely.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    isolate_after: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1; got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0; got {self.backoff_s}")
        if self.isolate_after < 1:
            raise ValueError(f"isolate_after must be >= 1; got {self.isolate_after}")


# Exceptions that mean "the execution substrate failed", not "the work
# function raised": a dead pool, or a result that could not cross the pipe.
# Everything else propagates to the caller unchanged.
_INFRA_FAILURES = (BrokenExecutor, pickle.PicklingError)


class ClientExecutor:
    """Interface: run one round of per-client work.

    Executors are context managers — ``with make_executor(...) as ex:``
    guarantees :meth:`close` runs even when the round loop raises; the
    algorithm driver relies on this instead of best-effort finalizers.
    """

    workers: int = 1

    #: client id → failure reason for the most recent round; parallel
    #: backends record ``"worker-crash"`` here for tasks whose worker died
    #: beyond recovery. Reassigned (never mutated) each round.
    last_round_failures: "dict[int, str]" = {}

    @property
    def name(self) -> str:
        """The backend and its policy, as run-meta records it."""
        return type(self).__name__

    def run_round(self, work: WorkFn, tasks: "Sequence[Task]") -> "list[ClientUpdate]":
        """Execute ``work`` for every task; results in task order.

        Clients missing from the result list (crashed beyond recovery) are
        reported in :attr:`last_round_failures`.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (no-op for in-process backends)."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SerialExecutor(ClientExecutor):
    """In-process, in-order execution — the reference backend."""

    workers = 1

    def run_round(self, work: WorkFn, tasks: "Sequence[Task]") -> "list[ClientUpdate]":
        self.last_round_failures = {}
        return [work(cid, payload) for cid, payload in tasks]


class BatchedExecutor(ClientExecutor):
    """Cross-client batched execution: homogeneous cohorts train stacked.

    The round's work closure is (by the algorithm-layer contract)
    ``functools.partial(algorithm.client_work, round_idx)``; the executor
    unwraps the algorithm and offers it the whole task list via
    ``client_work_batched``. The algorithm folds every cohort it can prove
    homogeneous (same model signature, same shard size) into stacked
    tensor programs of at most 64 clients each (:mod:`repro.nn.batched`)
    and returns those updates;
    clients it declines — unique architectures, singleton groups,
    algorithms without a batched path — run through the ordinary serial
    ``work`` call. Results are bit-identical to :class:`SerialExecutor`
    either way.

    ``fully_batched_only`` is the stacking policy the algorithm's grouping
    rule reads: when set, only programs without conv, batch-norm or pool
    layers (:func:`repro.nn.batched.fully_batched`) stack, because conv
    walks the stack one client at a time, so a conv stack buys no speed
    and multiplies activation memory by the stack width.
    :func:`make_executor` sets it for the in-process default;
    ``--executor batched`` leaves it off and stacks conv models too.

    :attr:`last_round_mode` records what happened: ``"batched"`` (every
    client stacked), ``"mixed"`` (some stacked, some serial), or
    ``"serial"`` (no batched path taken).
    """

    workers = 1
    last_round_mode = "serial"

    def __init__(self, fully_batched_only: bool = False) -> None:
        self.fully_batched_only = fully_batched_only

    @property
    def name(self) -> str:
        suffix = "(fully_batched_only)" if self.fully_batched_only else ""
        return type(self).__name__ + suffix

    def run_round(self, work: WorkFn, tasks: "Sequence[Task]") -> "list[ClientUpdate]":
        self.last_round_failures = {}
        batched: "dict[int, ClientUpdate] | None" = None
        if tasks:
            algo = getattr(getattr(work, "func", None), "__self__", None)
            hook = getattr(algo, "client_work_batched", None)
            args = getattr(work, "args", ())
            if hook is not None and len(args) == 1:
                batched = hook(args[0], tasks)
        if not batched:
            self.last_round_mode = "serial"
            return [work(cid, payload) for cid, payload in tasks]
        results = [
            batched[cid] if cid in batched else work(cid, payload)
            for cid, payload in tasks
        ]
        self.last_round_mode = "batched" if len(batched) == len(tasks) else "mixed"
        return results


# Per-worker cache of the last unpickled round snapshot. Tokens are unique
# per (executor instance, round), so a worker unpickles each round's work
# closure at most once and reuses it for every task it runs that round.
_SHIPPED: "dict[str, Any]" = {}

_EXECUTOR_IDS = itertools.count(1)


def _invoke_shipped(
    token: "tuple[int, int]", blob: bytes, cid: int, payload: Mapping[str, Any]
) -> "ClientUpdate":
    if _SHIPPED.get("token") != token:
        _SHIPPED["work"] = pickle.loads(blob)
        _SHIPPED["token"] = token
    return _SHIPPED["work"](cid, payload)


def fork_available() -> bool:
    """Whether fork-based process pools exist on this platform."""
    return hasattr(os, "fork") and "fork" in multiprocessing.get_all_start_methods()


class ParallelExecutor(ClientExecutor):
    """Process-parallel execution over a fork pool.

    Every worker must see the algorithm exactly as it was at round start.
    The work closure — a bound method whose ``self`` is the algorithm — is
    pickled once per round, sent along with each task as an opaque byte
    blob, and unpickled at most once per round in each worker; the pool is
    forked lazily on the first parallel round and kept until :meth:`close`.
    A closure that does not pickle (a lambda or local-function model
    factory, say) raises :class:`TypeError` before any pool is forked.
    ``last_round_mode`` records what the most recent round did:
    ``"serial"`` (fewer than two workers or tasks, or no fork on this
    platform) or ``"shipped"``.

    A worker death breaks the pool; the recovery ladder (module docstring)
    discards it and lazily forks a fresh one, so later waves and rounds
    keep running pooled. Unrecoverable tasks are reported in
    :attr:`last_round_failures` as ``"worker-crash"``.

    Use as a context manager (or call :meth:`close`, or let
    :class:`~repro.runtime.runtime.FLRuntime` do it) to shut the pool
    down; the executor re-arms itself after ``close`` so a later round
    simply forks a fresh pool.
    """

    def __init__(
        self, workers: "int | None" = None, retry: "RetryPolicy | None" = None
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1; got {workers}")
        self.workers = int(workers)
        self.retry = retry if retry is not None else RetryPolicy()
        self._id = next(_EXECUTOR_IDS)
        self._pool: "_PoolExecutor | None" = None
        self._round_seq = 0
        self.last_round_mode: "str | None" = None

    # The live pool (threads, pipes, locks) must never ride along when the
    # algorithm snapshot itself is pickled for shipping — workers only need
    # the executor's configuration.
    def __getstate__(self) -> dict:
        return {"workers": self.workers, "retry": self.retry}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["workers"], retry=state.get("retry"))

    def run_round(self, work: WorkFn, tasks: "Sequence[Task]") -> "list[ClientUpdate]":
        self.last_round_failures = {}
        if self.workers < 2 or len(tasks) < 2 or not fork_available():
            self.last_round_mode = "serial"
            return [work(cid, payload) for cid, payload in tasks]
        try:
            blob = pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickle raises whatever __reduce__ raises
            raise TypeError(
                f"round work {work!r} does not pickle ({type(exc).__name__}: "
                f"{exc}); the process pool ships each round's work to its "
                "workers — build it from a module-level factory or a "
                "functools.partial of one"
            ) from exc
        self._round_seq += 1
        self.last_round_mode = "shipped"
        call = functools.partial(_invoke_shipped, (self._id, self._round_seq), blob)
        return self._run_with_recovery(call, work, tasks)

    def _run_with_recovery(
        self,
        call: "Callable[[int, Mapping[str, Any]], ClientUpdate]",
        work: WorkFn,
        tasks: "Sequence[Task]",
    ) -> "list[ClientUpdate]":
        """Run the tasks through ``call`` on the pool, climbing the recovery
        ladder of the module docstring. Returns the updates in task order
        and records ``"worker-crash"`` for tasks whose every attempt died
        with its worker in :attr:`last_round_failures`. ``work`` is the
        in-process fallback used only when no pool can be forked at all.
        """
        policy = self.retry
        pending: "dict[int, Mapping[str, Any]]" = dict(tasks)
        attempts = dict.fromkeys(pending, 0)
        results: "dict[int, ClientUpdate]" = {}
        failures: "dict[int, str]" = {}
        consecutive_breaks = 0

        while pending:
            # isolation: one suspect at a time
            isolate = consecutive_breaks >= policy.isolate_after
            batch = [next(iter(pending))] if isolate else list(pending)
            try:
                if self._pool is None:
                    self._pool = _PoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context("fork"),
                    )
                futures = {
                    cid: self._pool.submit(call, cid, pending[cid]) for cid in batch
                }
            except OSError:
                # Forking is impossible (fd/memory exhaustion, platform loss):
                # run what's left in-process rather than killing the run.
                self.close(wait=False)
                for cid in list(pending):
                    results[cid] = work(cid, pending.pop(cid))
                break
            broken = False
            try:
                for cid, fut in futures.items():
                    try:
                        results[cid] = fut.result()
                        pending.pop(cid)
                    except _INFRA_FAILURES:
                        broken = True
                        attempts[cid] += 1
                        if attempts[cid] >= policy.max_attempts:
                            failures[cid] = WORKER_CRASH
                            pending.pop(cid)
            except BaseException:
                # A work-raised exception propagates (programming error); the
                # pool is abandoned without waiting on its stragglers.
                self.close(wait=False)
                raise
            if broken:
                # The pool died with its worker: the next wave (and the next
                # round) lazily fork a fresh one.
                self.close(wait=False)
                consecutive_breaks += 1
                if policy.backoff_s > 0:
                    time.sleep(policy.backoff_s * 2 ** (consecutive_breaks - 1))
            else:
                consecutive_breaks = 0

        self.last_round_failures = failures
        return [results[cid] for cid, _ in tasks if cid in results]

    def close(self, wait: bool = True) -> None:
        """Shut the pool down; ``wait=False`` abandons a broken or
        poisoned pool without waiting on its stragglers."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None


EXECUTOR_KINDS = ("serial", "parallel", "batched")


def make_executor(workers: int = 0, kind: "str | None" = None) -> ClientExecutor:
    """Build the executor for a worker count and optional explicit kind.

    With ``kind=None`` (the default) ≥2 workers → :class:`ParallelExecutor`
    and 0/1 → a :class:`BatchedExecutor` that stacks only fully batched
    programs (homogeneous MLP cohorts: no conv, batch-norm or pool layer)
    and runs everything else serially, bit-identical to
    :class:`SerialExecutor`. An explicit ``kind`` —
    ``"serial"`` (the reference), ``"parallel"`` or ``"batched"`` (stacks
    conv models too), e.g. from ``--executor`` / ``$REPRO_EXECUTOR`` —
    picks the backend directly; ``"parallel"`` treats ``workers < 2`` as
    "use all cores".
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0; got {workers}")
    if kind is None:
        if workers < 2:
            return BatchedExecutor(fully_batched_only=True)
        kind = "parallel"
    kind = kind.strip().lower()
    if kind not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor kind {kind!r}; options: {EXECUTOR_KINDS}")
    if kind == "serial":
        return SerialExecutor()
    if kind == "batched":
        return BatchedExecutor()
    return ParallelExecutor(workers if workers >= 2 else None)
