"""The parity matrix: every registry algorithm replays bit for bit across
the runtime axes.

Every stochastic stream of a run is pure in ``(seed, round, client)``, so
how a run is executed — which executor, where the data and the per-client
state live, whether the server merges through a buffer as large as the
cohort, whether the run is killed and resumed or streams its history — must
not move a bit. Each cell is compared, in the same process, with its
oracle: the same algorithm, world, regime and adversity run serially,
eagerly and uninterrupted. The comparison is :func:`tests.helpers.signature`
(history fingerprint, global-model SHA-256, ``server_state()`` SHA-256);
the degenerate buffer's oracle is the sync run, whose ``server_state()``
never carries the buffer, so there only the trajectory is compared.

Tier-1 runs a deterministic pairwise cover of :data:`AXES` — every pair of
values of two axes is in at least one cell — plus the full cross of the
algorithms with the pool, both stacking executors, the degenerate buffer
and a kill-and-resume. A cell also asserts what makes it meaningful (the
pool shipped the round, a cohort stacked, the small buffer merged late, the
stream moved records out of RAM, the killed run left updates pending and
client state on disk). The full product is ``itertools.product(*AXES.values())``.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import pytest

from repro.data import IIDPartitioner
from repro.data.federated import build_federated_dataset
from repro.data.lazy import LazyFederatedDataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.fl.sampler import cohort_size
from repro.nn.models import build_model
from repro.runtime.executors import EXECUTOR_KINDS, fork_available
from tests.helpers import signature

NUM_CLIENTS = 6
SAMPLE_RATIO = 0.5
ROUNDS = 3
RESUME_AT = 2
COHORT = cohort_size(NUM_CLIENTS, SAMPLE_RATIO)

MODEL_FN = functools.partial(
    build_model, "mlp", num_classes=4, in_channels=1, image_size=8, width_mult=0.25, seed=1
)

AXES = {
    "algorithm": tuple(ALGORITHM_REGISTRY.names()),
    "world": ("iid", "dirichlet"),
    "executor": (None, *EXECUTOR_KINDS),
    "residency": ("eager", "lazy", "spill"),
    "regime": ("sync", "degenerate", "buffer2"),
    "adversity": ("none", "faults", "attacks"),
    "resume": ("straight", "resume", "stream"),
}

EXECUTORS = {
    None: {},
    "serial": dict(executor="serial"),
    "parallel": dict(workers=2, executor="parallel"),
    "batched": dict(executor="batched"),
}
REGIMES = {
    "sync": {},
    # a buffer as large as the cohort with uniform weights is the sync
    # server; the sync server's surplus clients would be merged later by a
    # buffer, so the anchor does not over-provision
    "degenerate": dict(
        aggregation="buffered", buffer_size=COHORT, staleness_alpha=0.0, over_provision=False
    ),
    # stragglers arrive two versions late under faults; the bound evicts them
    "buffer2": dict(aggregation="buffered", buffer_size=2, max_staleness=1),
    # the degenerate buffer's oracle (not an axis value)
    "sync-exact": dict(over_provision=False),
}
ADVERSITIES = {
    "none": {},
    # the virtual clock: stragglers reorder arrivals and go stale
    "faults": dict(faults="dropout=0.3,loss=0.1,straggler=0.4,slowdown=6"),
    # autoclip keeps a running threshold in server_state()
    "attacks": dict(faults="signflip=0.15,noise=0.5@0.15,labelflip=0.15", defense="autoclip"),
}


class Cell(NamedTuple):
    algorithm: str
    world: str
    executor: "str | None"
    residency: str
    regime: str
    adversity: str
    resume: str

    @property
    def id(self) -> str:
        return "-".join(str(v) for v in self)

    def oracle(self) -> "Cell":
        """The run this cell must replay: serial, eager, uninterrupted."""
        regime = "sync-exact" if self.regime == "degenerate" else self.regime
        return self._replace(executor="serial", residency="eager", regime=regime, resume="straight")


def pairwise_cover(axes: dict) -> "list[Cell]":
    """Cells holding every pair of values of two different axes, built
    greedily in a fixed order: each cell starts from the first uncovered
    pair and fills the other axes with the value covering the most
    uncovered pairs (on a tie, the value used least so far, then the first).
    No randomness, so tier-1 runs the same cells every time."""
    sizes = [len(v) for v in axes.values()]
    axis_pairs = list(itertools.combinations(range(len(sizes)), 2))
    todo = {(i, a, j, b) for i, j in axis_pairs for a in range(sizes[i]) for b in range(sizes[j])}
    uses = [[0] * n for n in sizes]
    cells = []
    while todo:
        i, a, j, b = min(todo)
        row = {i: a, j: b}
        for k in range(len(sizes)):
            if k not in row:
                row[k] = max(
                    range(sizes[k]),
                    key=lambda v: (
                        sum(_pair(k, v, m, row[m]) in todo for m in row), -uses[k][v], -v
                    ),
                )
        for k, v in row.items():
            uses[k][v] += 1
        todo -= {(i, row[i], j, row[j]) for i, j in axis_pairs}
        cells.append(Cell(*(values[row[k]] for k, values in enumerate(axes.values()))))
    return cells


def _pair(k: int, v: int, m: int, w: int) -> tuple:
    """Value ``v`` of axis ``k`` and value ``w`` of axis ``m``, lower axis first."""
    return (k, v, m, w) if k < m else (m, w, k, v)


@functools.lru_cache(maxsize=None)
def federation(world: str, lazy: bool):
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    split = (
        dict(partitioner=IIDPartitioner(NUM_CLIENTS, seed=0)) if world == "iid" else dict(alpha=0.5)
    )
    builder = LazyFederatedDataset if lazy else build_federated_dataset
    return builder(
        SyntheticImageDataset(spec, seed=0), num_clients=NUM_CLIENTS, n_train=240, n_test=60,
        n_public=60, seed=0, **split,
    )


def config(cell: Cell) -> FLConfig:
    return FLConfig(
        rounds=ROUNDS, sample_ratio=SAMPLE_RATIO, local_epochs=1, batch_size=16, lr=0.05,
        seed=1, distill_epochs=1, state_residency=1 if cell.residency == "spill" else None,
        **EXECUTORS[cell.executor], **REGIMES[cell.regime], **ADVERSITIES[cell.adversity],
    )


def run(cell: Cell, workdir=None):
    """Run one cell, resuming or streaming in ``workdir``; returns
    ``(algorithm, history)``."""
    cls = ALGORITHM_REGISTRY.get(cell.algorithm)
    # spilled state is a population-scale setup, so its data is lazy too
    fed = federation(cell.world, cell.residency != "eager")
    cfg = config(cell)

    def finish(algo, **run_kwargs):
        try:
            return algo, algo.run(**run_kwargs)
        finally:
            algo.runtime.executor.close()

    if cell.resume == "resume":
        killed, _ = finish(cls(MODEL_FN, fed, cfg), rounds=RESUME_AT, checkpoint_dir=workdir)
        if cell in KILLS:  # there is state to restore
            assert len(killed._update_buffer) > 0, "no update pending at the kill"
            stores = {k for k, v in vars(killed).items() if hasattr(v, "spilled_count")}
            assert stores == set(SPILLED.get(cell.algorithm, ())), stores
            for store in stores:
                assert getattr(killed, store).spilled_count > 0, f"{store} never spilled"
        return finish(cls(MODEL_FN, fed, cfg), checkpoint_dir=workdir, resume_from=True)
    if cell.resume == "stream":
        algo, history = finish(
            cls(MODEL_FN, fed, cfg), history_stream=workdir / "run.jsonl", history_keep_records=2
        )
        assert len(history.records) < history.num_rounds, "the stream kept every record"
        return algo, history
    return finish(cls(MODEL_FN, fed, cfg))


@functools.lru_cache(maxsize=None)
def oracle_signature(oracle: Cell) -> tuple:
    """The signature of an oracle cell, run once per process."""
    algo, history = run(oracle)
    if oracle.regime == "buffer2":  # the small buffer really merges late
        assert any(s > 0 for s in history.staleness_histogram()), "no stale merge"
    return signature(algo, history)


def check(cell: Cell, workdir) -> None:
    want = oracle_signature(cell.oracle())
    algo, history = run(cell, workdir)
    got = signature(algo, history)
    if cell.regime == "degenerate":
        got, want = got[:2], want[:2]
    assert got == want, f"{cell.id} diverged from {cell.oracle().id}"
    # dropout may leave a round a single client, which every executor runs
    # in process, so the round modes are read on fault-free cells
    if cell.adversity == "none":
        mode = getattr(algo.runtime.executor, "last_round_mode", None)
        if cell.executor == "parallel":
            assert mode == "shipped"
        elif cell.executor in (None, "batched") and cell.world == "iid":
            assert mode == ("batched" if cell.algorithm in STACKED else "serial")


# The algorithms whose client work trains equal-shard MLP cohorts as one
# stack; the others (a proximal hook, control variates, normalised steps,
# logit distillation) decline, and the executor runs them serially.
STACKED = {"fedadam", "fedavg", "fedavgm", "feddf", "fedkd", "fedkemf"}

# The per-client stores of the algorithms that keep client state, which
# state_residency=1 spills to disk.
SPILLED = {
    "fedkd": ("local_models",),
    "fedkemf": ("local_models",),
    "fedmd": ("client_models",),
    "scaffold": ("client_controls",),
}

PAIRWISE = pairwise_cover(AXES)
# every algorithm run through the pool under stragglers and a bounded
# buffer, killed with updates pending and its client state spilled to disk
# (asserted in run()), then resumed
KILLS = [
    Cell(name, "dirichlet", "parallel", "spill", "buffer2", "faults", "resume")
    for name in AXES["algorithm"]
]
# every algorithm through the pool and the two stacking executors, through
# the degenerate buffer, and KILLS
CROSS = [
    cell
    for name in AXES["algorithm"]
    for cell in (
        *(
            Cell(name, "iid", executor, "eager", "sync", "none", "straight")
            for executor in ("parallel", "batched", None)
        ),
        Cell(name, "dirichlet", "serial", "eager", "degenerate", "none", "straight"),
    )
] + KILLS


def _skip_without_fork(cell: Cell) -> None:
    if cell.executor == "parallel" and not fork_available():
        pytest.skip("needs fork start method")


@pytest.mark.parametrize("cell", PAIRWISE, ids=lambda c: c.id)
def test_pairwise_cell(cell, tmp_path):
    _skip_without_fork(cell)
    check(cell, tmp_path)


@pytest.mark.parametrize("cell", CROSS, ids=lambda c: c.id)
def test_registry_cross(cell, tmp_path):
    _skip_without_fork(cell)
    check(cell, tmp_path)


def test_pairwise_cover_holds_every_pair():
    names = list(AXES)
    for i, j in itertools.combinations(range(len(names)), 2):
        want = set(itertools.product(AXES[names[i]], AXES[names[j]]))
        assert {(c[i], c[j]) for c in PAIRWISE} == want, (names[i], names[j])
