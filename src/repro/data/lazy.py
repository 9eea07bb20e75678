"""Lazy federated dataset: the one shard recipe, built on demand.

A federation over a synthetic world is a *recipe*; this module holds its
only implementation, and :func:`repro.data.federated.build_federated_dataset`
is the same recipe with every client's shards built up front. Cross-device FL
(the paper's regime, and Fed-ET/FedDF's framing) samples tiny cohorts from
enormous populations, so a million-client federation keeps just the recipe:

- the world (prototype banks, O(classes·protos·C·H·W)),
- the partition assignment in CSR form (two O(n_train) int arrays,
  computed from a label-only replay of the corpus draw — no images),
- the local train/test split: every client's train-view size (one
  O(num_clients) int array, set at construction) and the split
  permutations (one O(n_train) int array, drawn from one stream in client
  order on first use).

Client shards are materialized on demand — :meth:`prefetch` evicts every
client outside one round's cohort, then builds the cohort in a single draw
through the federation's :class:`~repro.data.synthetic.NoiseSeekTable`
(the first draw walks the corpus noise stream once, later ones seek to the
rows they want), streamed in bounded chunks into one float32 array that
the per-client shards are gathered from. Materialization is pure in
``(seed, client)``: whatever subset of clients is built, in whatever order,
the shard bytes are those of building every client at once (property-tested in
``tests/data/test_lazy.py``, and pinned there by literal digests), so lazy
and eager runs produce bit-identical histories.

Pickling (the parallel executor snapshots the algorithm, fed
included) drops the materialized shard cache, the split permutations and
the seek table: workers rebuild their own shards from the recipe instead
of receiving pickled sample arrays.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset, Dataset
from repro.data.partition import DirichletPartitioner, Partitioner
from repro.data.synthetic import NoiseSeekTable, SyntheticImageDataset, _narrow, _narrow_dtype

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

    Constructor arguments are :func:`build_federated_dataset`'s; the
    object satisfies the same interface (``client_train`` /
    ``client_test`` / ``server_test`` / ``server_public`` / ``num_classes``
    / ``num_clients`` / ``client_sizes`` / ``validate``) with identical
    shard bytes, but holds no client arrays until they are touched.
    ``local_test_fraction`` must lie in (0, 1).

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
        if not 0.0 < local_test_fraction < 1.0:
            raise ValueError(f"local_test_fraction must be in (0, 1); got {local_test_fraction}")
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
        order, offsets = partitioner.partition_assignment(labels)
        if len(offsets) != num_clients + 1:
            raise RuntimeError("partitioner produced wrong number of shards")
        # The local split rule: a shard of 4 rows or more gives
        # max(1, round(size · fraction)) of them to its test view; a smaller
        # one is not split, and its test view is its train view.
        sizes = np.diff(offsets)
        held_out = np.maximum(1, np.rint(sizes * self.local_test_fraction)).astype(np.int64)
        train_sizes = np.where(sizes < 4, sizes, sizes - held_out)
        # The recipe arrays live for the whole run: each is kept in the
        # narrowest integer dtype that holds its values exactly.
        self._order = _narrow(order, 0, self.n_train - 1)
        self._offsets = _narrow(offsets, 0, self.n_train)
        self._train_sizes = _narrow(train_sizes, 0, int(sizes.max(initial=0)))
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
        return int(self._train_sizes[cid])

    def client_sizes(self) -> np.ndarray:
        return self._train_sizes.astype(np.int64)

    def validate(self) -> None:
        """Same contract as :meth:`FederatedDataset.validate`, index-only."""
        if len(self._train_sizes) and int(self._train_sizes.min()) < 1:
            raise ValueError("a client has an empty training shard")
        if len(self.server_test) == 0 or len(self.server_public) == 0:
            raise ValueError("server test/public sets must be non-empty")

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #

    def _ensure_split_perms(self) -> None:
        """Draw every client's local-split permutation, once.

        One stream, ``default_rng(seed + 17)``, consumed in client order:
        one ``permutation(len(shard))`` per split shard, none for a shard
        the split rule leaves whole (its permutation is the identity). The
        permutations are stored concatenated, aligned with the assignment
        offsets, in the narrowest dtype that holds the largest shard's
        positions. A run of consecutive shards of one size is drawn by one
        ``Generator.permuted`` call over its rows, which makes the same
        draws as that many ``permutation`` calls.
        """
        if self._split_concat is not None:
            return
        rng = np.random.default_rng(self.seed + 17)
        offsets = self._offsets.astype(np.int64)
        sizes = np.diff(offsets)
        out = np.empty(int(offsets[-1]), dtype=_narrow_dtype(0, int(sizes.max(initial=1)) - 1))
        runs = np.append(np.flatnonzero(np.diff(sizes, prepend=-1)), len(sizes)).tolist()
        for a, b in zip(runs[:-1], runs[1:]):
            size = int(sizes[a])
            shards = out[offsets[a] : offsets[b]].reshape(b - a, size)
            shards[...] = np.arange(size)
            if self._train_sizes[a] < size:
                rng.permuted(shards, axis=1, out=shards)
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
            n_te = size - self.client_size(c)
            # gathers, never views: a shard must not keep the block alive
            tr = ArrayDataset(x[perm[n_te:]], y[perm[n_te:]])
            # a shard left whole (identity perm) tests on its train view
            te = ArrayDataset(x[perm[:n_te]], y[perm[:n_te]]) if n_te else tr
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
        """Evict every client outside one round's cohort, then materialize
        the cohort in a single pass.

        The round loop calls this with the active client set, so resident
        shard memory is O(cohort), not O(touched-so-far). Materialization
        purity makes eviction invisible: a re-built shard is bitwise the
        evicted one.
        """
        want = dict.fromkeys(int(c) for c in cids)  # request order, no repeats
        # evict first: departing shards are freed before the cohort is built
        for c in [c for c in self._cache if c not in want]:
            del self._cache[c]
        missing = [c for c in want if c not in self._cache]
        if missing:
            self._materialize(missing)

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
