"""Span recorder and the instrumentation points of the traced run.

Everything here lives outside ``src/repro``: spans are recorded by rebinding
public entry points on the live algorithm object (``algo.select_clients``,
``algo.channel.upload``, ...), on a class (``LocalTrainer.train``) or in the
importing module's namespace (``base.evaluate_model``, ``fusion.member_logits``),
so the program under test is byte-identical in the traced and untraced runs.
Spans stay in memory; the child process summarises them once, at exit.

One trap is load-bearing: ``algo.client_work`` must **not** be rebound.
``BatchedExecutor.run_round`` finds the algorithm through
``work.func.__self__``, so an instance-level wrapper around ``client_work``
silently turns every round serial. The per-client path is timed one level
down instead, at ``LocalTrainer.train`` / ``DeepMutualTrainer.train``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Any, Callable, NamedTuple

__all__ = ["Span", "Tracer", "instrument", "span_totals"]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    round: int


class Tracer:
    """Records nested spans and named counts for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: "list[Span | None]" = []
        self.counts: Counter = Counter()
        self.round = -1
        self.round_modes: "list[str]" = []  # executor.last_round_mode per round
        self.last_accepted: list = []  # the last round's aggregated ClientUpdates
        self._stack: "list[int]" = []
        self._undo: "list[tuple[Any, str, bool, Any]]" = []

    def rebind(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: "Callable[..., None] | None" = None,
        after: "Callable[..., None] | None" = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span named
        ``name`` per call. ``before(*args, **kwargs)`` runs ahead of the
        span and ``after(result, *args, **kwargs)`` behind it, both outside
        the timed interval; :meth:`restore` puts the original back."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.round)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._undo.append((owner, attr, attr in vars(owner), fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`rebind`, newest first."""
        while self._undo:
            owner, attr, had_own, fn = self._undo.pop()
            if had_own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)  # the class attribute shows through again


def span_totals(spans: "list[Span]") -> "dict[str, dict[str, float]]":
    """Per span name: call count ``n``, summed duration ``s`` and summed
    self time ``self_s`` (duration minus the interval the direct children
    cover — children of one span never overlap in a single-threaded run)."""
    self_time = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_time[s.parent] -= s.end - s.start
    totals: "dict[str, dict[str, float]]" = {}
    for s, own in zip(spans, self_time):
        row = totals.setdefault(s.name, {"n": 0, "s": 0.0, "self_s": 0.0})
        row["n"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own
    return totals


def instrument(algo: Any, tracer: Tracer) -> None:
    """Rebind the layer boundaries of one live algorithm (see module doc)."""
    from repro.core import fedkemf as fedkemf_mod
    from repro.core import fusion as fusion_mod
    from repro.core.mutual import DeepMutualTrainer
    from repro.fl.algorithms import base as base_mod
    from repro.fl.history import RunHistory
    from repro.fl.trainer import LocalTrainer
    from repro.runtime.executors import BatchedExecutor

    counts = tracer.counts
    executor = algo.runtime.executor

    # fl.sampler — also the first call of a round, so it carries the index.
    tracer.rebind(
        algo, "select_clients", "sampler.select",
        before=lambda round_idx: setattr(tracer, "round", round_idx),
    )
    tracer.rebind(algo, "round", "base.round")

    # data.lazy — only a lazy federation has the hook.
    fed = algo.fed
    if hasattr(fed, "prefetch"):
        resident: "set[int]" = set()

        def before_prefetch(cids):
            resident.clear()
            resident.update(fed.resident_clients())

        def after_prefetch(_result, cids):
            counts["lazy.materialized"] += sum(1 for c in cids if c not in resident)

        tracer.rebind(fed, "prefetch", "lazy.prefetch", before_prefetch, after_prefetch)

    # fl.algorithms.base hooks and fl.comm
    tracer.rebind(algo, "client_payload", "base.payload")
    tracer.rebind(algo, "apply_client_update", "base.apply_update")
    tracer.rebind(algo.channel, "download", "comm.download")
    tracer.rebind(algo.channel, "upload", "comm.upload")

    # runtime.executors
    def after_run_round(_updates, _work, tasks):
        counts["executors.clients"] += len(tasks)
        counts["executors.failed"] += len(executor.last_round_failures)
        tracer.round_modes.append(getattr(executor, "last_round_mode", "serial"))

    tracer.rebind(executor, "run_round", "executors.run_round", after=after_run_round)

    if isinstance(executor, BatchedExecutor):
        def after_batched(result, _round_idx, tasks):
            stacked = len(result or {})
            counts["executors.stacked_clients"] += stacked
            counts["executors.declined"] += len(tasks) - stacked

        tracer.rebind(
            algo, "client_work_batched", "batched.client_work_batched", after=after_batched
        )

    # fl.trainer / core.mutual — the per-client path and its stacked twin.
    def after_train(stats, *_args, **_kwargs):
        counts["trainer.steps"] += stats.steps
        counts["trainer.samples"] += stats.samples_seen

    def after_mutual(stats, *_args, **_kwargs):
        counts["mutual.steps"] += stats.steps

    def per_client(after_one):
        # the stacked trainers return one stats object per client
        def after_stacked(stats, *_args, **_kwargs):
            for one in stats:
                after_one(one)

        return after_stacked

    tracer.rebind(LocalTrainer, "train", "trainer.client_work", after=after_train)
    tracer.rebind(base_mod, "train_stacked", "trainer.client_work", after=per_client(after_train))
    tracer.rebind(DeepMutualTrainer, "train", "mutual.client_work", after=after_mutual)
    tracer.rebind(
        fedkemf_mod, "train_stacked_mutual", "mutual.client_work", after=per_client(after_mutual)
    )

    # fl.robust admission gate
    def after_validate(reason, *_args, **_kwargs):
        if reason is not None:
            counts["robust.rejected"] += 1

    tracer.rebind(base_mod, "validate_update", "robust.validate", after=after_validate)

    # server side: aggregate and what it calls
    def before_aggregate(_round_idx, updates):
        tracer.last_accepted = updates

    tracer.rebind(algo, "aggregate", "fusion.aggregate", before=before_aggregate)
    tracer.rebind(base_mod, "average_states", "serialization.average_states")
    tracer.rebind(fusion_mod, "average_states", "serialization.average_states")
    tracer.rebind(fusion_mod, "member_logits", "ensemble.member_logits")
    tracer.rebind(fusion_mod, "weighted_ensemble_logits", "ensemble.teacher")

    def after_distill(_loss, _student, _teacher, public, config):
        counts["distill.steps"] += config.epochs * math.ceil(len(public) / config.batch_size)

    tracer.rebind(fusion_mod, "distill_to_student", "distill.student", after=after_distill)

    # fl.metrics / fl.history
    tracer.rebind(base_mod, "evaluate_model", "metrics.evaluate")
    tracer.rebind(RunHistory, "append", "history.append")
