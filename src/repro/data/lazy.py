"""Lazy federated dataset: million-client federations without the arrays.

The eager :func:`repro.data.federated.build_federated_dataset` materializes
the full training corpus and one ``Subset`` pair per client up front —
O(n_train·C·H·W) floats plus O(num_clients) Python objects, which caps the
repro at a few thousand clients. Cross-device FL (the paper's regime, and
Fed-ET/FedDF's framing) samples tiny cohorts from enormous populations, so
almost none of that state is ever touched.

:class:`LazyFederatedDataset` stores only the *recipe*:

- the world (prototype banks, O(classes·protos·C·H·W)),
- the partition assignment in CSR form (two O(n_train) int arrays,
  computed from a label-only replay of the corpus draw — no images),
- the per-client local train/test split permutations (one O(n_train) int
  array, replayed from the same rng stream the eager builder consumes).

Client shards are materialized on demand — :meth:`prefetch` builds one
round's cohort in a single draw through the federation's
:class:`~repro.data.synthetic.NoiseSeekTable` (the first draw walks the
corpus noise stream once, later ones seek to the rows they want) and
evicts everything else. Materialization is pure in ``(seed, client)``:
whatever subset of clients is built, in whatever order, the shard bytes
are identical to the eager builder's (property-tested in
``tests/data/test_lazy.py``), so lazy and eager runs produce bit-identical
histories.

Pickling (the persistent/parallel executors snapshot the algorithm, fed
included) drops the materialized shard cache, the split permutations and
the seek table: workers rebuild their own shards from the recipe instead
of receiving pickled sample arrays.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset, Dataset
from repro.data.partition import DirichletPartitioner, Partitioner
from repro.data.synthetic import NoiseSeekTable, SyntheticImageDataset

__all__ = ["LazyFederatedDataset"]


class _LazyShardList:
    """Sequence view over per-client shards, built on first access.

    Duck-types the ``list[Dataset]`` the eager federation exposes
    (``len`` / index / iterate); indexing materializes through the owning
    federation's shard cache.
    """

    def __init__(self, fed: "LazyFederatedDataset", kind: int) -> None:
        self._fed = fed
        self._kind = kind  # 0 = train view, 1 = local test view

    def __len__(self) -> int:
        return self._fed.num_clients

    def __getitem__(self, cid: int) -> Dataset:
        return self._fed._shard(int(cid))[self._kind]

    def __iter__(self):
        for cid in range(len(self)):
            yield self[cid]


class LazyFederatedDataset:
    """Drop-in federation over a synthetic world, materialized on demand.

    Constructor arguments mirror :func:`build_federated_dataset`; the
    resulting object satisfies the same interface (``client_train`` /
    ``client_test`` / ``server_test`` / ``server_public`` / ``num_classes``
    / ``num_clients`` / ``client_sizes`` / ``validate``) with identical
    shard bytes, but holds no client arrays until they are touched.

    The server-side sets (global test, public distillation set) are small
    and round-invariant, so they are materialized eagerly.
    """

    #: Seek table of the corpus draw: built by the first ``_materialize``
    #: (never the constructor) and left out of the pickle altogether.
    _seek: NoiseSeekTable | None = None

    def __init__(
        self,
        world: SyntheticImageDataset,
        num_clients: int,
        n_train: int,
        n_test: int,
        n_public: int,
        partitioner: Partitioner | None = None,
        alpha: float = 0.1,
        local_test_fraction: float = 0.25,
        seed: int = 0,
    ) -> None:
        self.world = world
        self.n_train = int(n_train)
        self.local_test_fraction = float(local_test_fraction)
        self.seed = int(seed)
        self.num_classes = world.spec.num_classes
        if partitioner is None:
            partitioner = DirichletPartitioner(num_clients, alpha=alpha, seed=seed)
        # Index-only partition: replay just the label draw of the corpus
        # (labels are the first consumption of the draw stream) and assign
        # in CSR form — no sample tensor exists yet.
        labels = world.sample_labels(self.n_train, seed=self.seed * 31 + 1)
        self._order, self._offsets = partitioner.partition_assignment(labels)
        if len(self._offsets) != num_clients + 1:
            raise RuntimeError("partitioner produced wrong number of shards")
        self.server_test = world.sample(n_test, seed=self.seed * 31 + 2)
        self.server_public = world.sample(n_public, seed=self.seed * 31 + 3)
        self._split_concat: np.ndarray | None = None
        self._cache: dict[int, tuple[ArrayDataset, ArrayDataset]] = {}
        self.client_train = _LazyShardList(self, 0)
        self.client_test = _LazyShardList(self, 1)

    # ------------------------------------------------------------------ #
    # structure (no materialization)
    # ------------------------------------------------------------------ #

    @property
    def num_clients(self) -> int:
        return len(self._offsets) - 1

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Per-sample tensor shape, without touching any client shard (the
        runtime's virtual clock probes this for its batch shapes)."""
        return self.world.sample_shape

    def partition_assignment(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR ``(order, offsets)`` assignment (read-only views)."""
        return self._order, self._offsets

    def shard_size(self, cid: int) -> int:
        """Assigned corpus rows for ``cid`` (before the local split)."""
        return int(self._offsets[cid + 1] - self._offsets[cid])

    def client_size(self, cid: int) -> int:
        """``len(client_train[cid])`` in O(1), without materializing it."""
        size = self.shard_size(cid)
        if size < 4:
            return size  # degenerate shard: train view is the whole shard
        return size - max(1, int(round(size * self.local_test_fraction)))

    def client_sizes(self) -> np.ndarray:
        return np.array([self.client_size(c) for c in range(self.num_clients)])

    def validate(self) -> None:
        """Same contract as :meth:`FederatedDataset.validate`, index-only."""
        sizes = np.diff(self._offsets)
        if len(sizes) and int(sizes.min()) < 1:
            raise ValueError("a client has an empty training shard")
        if len(self.server_test) == 0 or len(self.server_public) == 0:
            raise ValueError("server test/public sets must be non-empty")

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #

    def _ensure_split_perms(self) -> None:
        """Replay the eager builder's local-split rng stream, once.

        ``build_federated_dataset`` consumes ``default_rng(seed + 17)``
        sequentially in client order, drawing one ``permutation(len(shard))``
        per shard — except degenerate shards (< 4 samples), which skip the
        draw entirely. The permutations are stored concatenated, aligned
        with the assignment offsets.
        """
        if self._split_concat is not None:
            return
        rng = np.random.default_rng(self.seed + 17)
        out = np.empty(int(self._offsets[-1]), dtype=np.int64)
        pos = 0
        for size in np.diff(self._offsets):
            size = int(size)
            if size >= 4:
                out[pos : pos + size] = rng.permutation(size)
            else:
                out[pos : pos + size] = np.arange(size)
            pos += size
        self._split_concat = out

    def _materialize(self, cids: "list[int]") -> None:
        """Build the listed clients' shards in one seek-table draw: the
        first call pays for the corpus noise stream up to its furthest row,
        later calls draw O(rows wanted)."""
        self._ensure_split_perms()
        if self._seek is None:
            self._seek = NoiseSeekTable()
        rows = np.concatenate(
            [self._order[self._offsets[c] : self._offsets[c + 1]] for c in cids]
        ) if cids else np.array([], dtype=np.int64)
        block = self.world.sample_rows(
            self.n_train, rows, seed=self.seed * 31 + 1, seek=self._seek
        )
        pos = 0
        for c in cids:
            size = self.shard_size(c)
            x = block.x[pos : pos + size]
            y = block.y[pos : pos + size]
            start = int(self._offsets[c])
            perm = self._split_concat[start : start + size]
            if size >= 4:
                n_te = max(1, int(round(size * self.local_test_fraction)))
                tr = ArrayDataset(x[perm[n_te:]], y[perm[n_te:]])
                te = ArrayDataset(x[perm[:n_te]], y[perm[:n_te]])
            else:  # degenerate tiny shard: test on the train view
                ds = ArrayDataset(x, y)
                tr, te = ds, ds
            self._cache[c] = (tr, te)
            pos += size

    def _shard(self, cid: int) -> tuple[ArrayDataset, ArrayDataset]:
        if not 0 <= cid < self.num_clients:
            raise IndexError(f"client {cid} outside federation of {self.num_clients}")
        cached = self._cache.get(cid)
        if cached is None:
            self._materialize([cid])
            cached = self._cache[cid]
        return cached

    def prefetch(self, cids) -> None:
        """Materialize one round's cohort in a single pass; evict the rest.

        The round loop calls this with the active client set, so resident
        shard memory is O(cohort), not O(touched-so-far). Materialization
        purity makes eviction invisible: a re-built shard is bitwise the
        evicted one.
        """
        want = dict.fromkeys(int(c) for c in cids)  # request order, no repeats
        missing = [c for c in want if c not in self._cache]
        if missing:
            self._materialize(missing)
        for c in [c for c in self._cache if c not in want]:
            del self._cache[c]

    def resident_clients(self) -> "list[int]":
        """Client ids with materialized shards (tests/diagnostics)."""
        return sorted(self._cache)

    # ------------------------------------------------------------------ #
    # executor transport
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        # Workers materialize their own shards from the recipe: the pickle
        # that crosses the executor boundary carries no client sample
        # arrays, no O(n) split permutations and no seek table — only the
        # world, the assignment, and the (small, eager) server-side sets.
        state = dict(self.__dict__)
        state["_cache"] = {}
        state["_split_concat"] = None
        state.pop("_seek", None)
        state.pop("client_train", None)
        state.pop("client_test", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.client_train = _LazyShardList(self, 0)
        self.client_test = _LazyShardList(self, 1)
