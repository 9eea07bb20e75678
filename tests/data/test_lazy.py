"""Subset ≡ whole: the lazy federation against the eager build (hypothesis).

There is one shard recipe (``LazyFederatedDataset``); the eager
``build_federated_dataset`` is that recipe with every client built in one
draw. The lazy contract is that materialization is a pure function of
``(seed, client)``: whatever subset of clients is built, in whatever order,
every shard byte equals the all-clients build. These tests drive that
property over random worlds, partitioners and federation sizes, including
the degenerate ``len(shard) < 4`` path that skips the local-split rng draw.
``TestSeekTable`` pins the layer below: any sequence of ``sample_rows``
calls through one ``NoiseSeekTable`` equals the all-rows draw
(``world.sample``) bit for bit, at any chunk budget, and later calls do
cohort-sized work (counted, not timed) in memory bounded by their output
plus the budget (traced). ``TestParentCapturedBytes`` holds literal digests
of both, the anchor that does not move with the one implementation.
"""

from __future__ import annotations

import hashlib
import inspect
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import synthetic
from repro.data.federated import build_federated_dataset
from repro.data.lazy import LazyFederatedDataset
from repro.data.partition import (
    DirichletPartitioner,
    IIDPartitioner,
    QuantitySkewPartitioner,
)
from repro.data.synthetic import (
    SEEK_STRIDE,
    NoiseSeekTable,
    SyntheticImageDataset,
    SyntheticSpec,
)


def make_world(seed=0, channels=1, image_size=6, num_classes=4):
    spec = SyntheticSpec(
        num_classes=num_classes, channels=channels, image_size=image_size,
        noise_std=0.25,
    )
    return SyntheticImageDataset(spec, seed=seed)


def assert_datasets_equal(a, b, what=""):
    xa, ya = a.arrays()
    xb, yb = b.arrays()
    np.testing.assert_array_equal(ya, yb, err_msg=f"{what} labels differ")
    np.testing.assert_array_equal(xa, xb, err_msg=f"{what} samples differ")


def build_pair(world, num_clients, n_train, partitioner=None, alpha=0.5, seed=0):
    kwargs = dict(
        num_clients=num_clients, n_train=n_train, n_test=24, n_public=16,
        alpha=alpha, seed=seed,
    )
    if partitioner is not None:
        # partitioners are stateless in use but cheap: build one per side
        kwargs["partitioner"] = partitioner(num_clients, seed)
    eager = build_federated_dataset(world, **kwargs)
    lazy = LazyFederatedDataset(world, **kwargs)
    return eager, lazy


PARTITIONERS = {
    "iid": lambda k, s: IIDPartitioner(k, seed=s),
    "dirichlet": lambda k, s: DirichletPartitioner(k, alpha=0.5, min_size=1, seed=s),
}


class TestParityProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 50),
        num_clients=st.integers(2, 12),
        alpha=st.floats(0.1, 2.0),
        kind=st.sampled_from(sorted(PARTITIONERS)),
    )
    def test_every_client_bitwise_equal(self, seed, num_clients, alpha, kind):
        world = make_world(seed=seed % 3)
        part = (lambda k, s, kind=kind: PARTITIONERS[kind](k, s)) if kind == "iid" \
            else (lambda k, s, a=alpha: DirichletPartitioner(k, alpha=a, min_size=1, seed=s))
        eager, lazy = build_pair(
            world, num_clients, n_train=num_clients * 9, partitioner=part, seed=seed
        )
        assert lazy.num_clients == len(eager.client_train) == num_clients
        for cid in range(num_clients):
            assert_datasets_equal(
                eager.client_train[cid], lazy.client_train[cid], f"client {cid} train"
            )
            assert_datasets_equal(
                eager.client_test[cid], lazy.client_test[cid], f"client {cid} test"
            )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 20),
        num_clients=st.integers(2, 10),
        kind=st.sampled_from(sorted(PARTITIONERS)),
    )
    def test_assignment_matches_partition_indices(self, seed, num_clients, kind):
        """The CSR assignment must be the eager per-client index lists."""
        world = make_world()
        n_train = num_clients * 7
        labels = world.sample_labels(n_train, seed=seed * 31 + 1)
        indices = PARTITIONERS[kind](num_clients, seed).partition_indices(labels)
        order, offsets = PARTITIONERS[kind](num_clients, seed).partition_assignment(labels)
        assert len(offsets) == num_clients + 1
        for cid in range(num_clients):
            np.testing.assert_array_equal(
                order[offsets[cid]:offsets[cid + 1]], indices[cid],
                err_msg=f"assignment slice {cid} != eager indices ({kind})",
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 20), n=st.integers(8, 64))
    def test_sample_rows_matches_full_draw(self, seed, n):
        """Row-streamed materialization == indexing the full corpus draw."""
        world = make_world(seed=1)
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=min(n, 10))
        full = world.sample(n, seed=seed)
        block = world.sample_rows(n, rows, seed=seed)
        np.testing.assert_array_equal(block.x, full.x[rows])
        np.testing.assert_array_equal(block.y, full.y[rows])


class TestDegenerateShards:
    def test_all_shards_below_split_threshold(self):
        """Two rows per client: every shard takes the <4 path (no split
        draw), and train/test views alias the whole shard on both sides."""
        world = make_world()
        num_clients = 8
        eager, lazy = build_pair(
            world, num_clients, n_train=2 * num_clients,
            partitioner=PARTITIONERS["iid"], seed=3,
        )
        for cid in range(num_clients):
            assert lazy.shard_size(cid) == 2
            assert lazy.client_size(cid) == 2
            assert_datasets_equal(eager.client_train[cid], lazy.client_train[cid])
            assert_datasets_equal(eager.client_test[cid], lazy.client_test[cid])
            # degenerate: local test IS the train view
            assert_datasets_equal(lazy.client_train[cid], lazy.client_test[cid])

    def test_mixed_degenerate_and_regular(self):
        """Dirichlet skew mixes tiny and regular shards; the split rng
        stream must stay aligned across the skipped draws."""
        world = make_world()
        eager, lazy = build_pair(world, 6, n_train=40, alpha=0.15, seed=11)
        sizes = [lazy.shard_size(c) for c in range(6)]
        for cid in range(6):
            assert_datasets_equal(eager.client_train[cid], lazy.client_train[cid])
            assert_datasets_equal(eager.client_test[cid], lazy.client_test[cid])
        # the interesting case actually occurred for this seed
        assert min(sizes) >= 1


class TestLocalTestFraction:
    @pytest.mark.parametrize(
        "builder", [build_federated_dataset, LazyFederatedDataset], ids=["eager", "lazy"]
    )
    @pytest.mark.parametrize(
        "fraction, match",
        [
            (0.0, "local_test_fraction"),
            (1.0, "local_test_fraction"),
            (1.5, "local_test_fraction"),
            (-0.5, "local_test_fraction"),
            (0.9, "empty training"),  # all of a 4-row shard held out
        ],
    )
    def test_bad_fraction_fails_at_build(self, builder, fraction, match):
        """Out of (0, 1) the constructor refuses the fraction; inside it, a
        fraction that leaves a train view empty fails ``validate`` — which
        the eager builder runs — rather than the first ``DataLoader``."""
        with pytest.raises(ValueError, match=match):
            builder(
                make_world(), num_clients=5, n_train=20, n_test=8, n_public=8,
                partitioner=IIDPartitioner(5, seed=0), local_test_fraction=fraction,
            ).validate()


class TestLazyMechanics:
    def test_materialization_order_independent(self):
        world = make_world()
        _, a = build_pair(world, 6, n_train=48, seed=5)
        _, b = build_pair(world, 6, n_train=48, seed=5)
        forward = [a.client_train[c].arrays() for c in range(6)]
        backward = [b.client_train[c].arrays() for c in reversed(range(6))][::-1]
        for (xa, ya), (xb, yb) in zip(forward, backward):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_prefetch_caps_residency_and_rebuilds_bitwise(self):
        world = make_world()
        _, lazy = build_pair(world, 8, n_train=64, seed=2)
        first = lazy.client_train[0].arrays()
        lazy.prefetch([3, 5])
        assert lazy.resident_clients() == [3, 5]
        lazy.prefetch([0])
        assert lazy.resident_clients() == [0]
        rebuilt = lazy.client_train[0].arrays()
        np.testing.assert_array_equal(first[0], rebuilt[0])
        np.testing.assert_array_equal(first[1], rebuilt[1])

    def test_prefetch_repeated_client_id_builds_it_once(self):
        world = make_world()
        eager, lazy = build_pair(world, 8, n_train=64, seed=2)
        built, materialize = [], lazy._materialize
        lazy._materialize = lambda cids: (built.append(list(cids)), materialize(cids))
        lazy.prefetch([3, 3, 5])
        assert built == [[3, 5]]  # request order, the repeat dropped
        assert lazy.resident_clients() == [3, 5]
        for cid in (3, 5):
            assert_datasets_equal(eager.client_train[cid], lazy.client_train[cid])
            assert_datasets_equal(eager.client_test[cid], lazy.client_test[cid])

    def test_client_size_without_materialization(self):
        world = make_world()
        eager, lazy = build_pair(world, 6, n_train=60, seed=7)
        for cid in range(6):
            assert lazy.client_size(cid) == len(eager.client_train[cid])
        assert lazy.resident_clients() == []  # size probes touched nothing
        np.testing.assert_array_equal(
            lazy.client_sizes(), [len(s) for s in eager.client_train]
        )

    def test_pickle_drops_arrays_rebuilds_identically(self):
        world = make_world()
        _, lazy = build_pair(world, 6, n_train=48, seed=9)
        want = [lazy.client_train[c].arrays() for c in range(6)]
        blob = pickle.dumps(lazy)
        # the snapshot must not grow with the number of touched shards
        lazy.prefetch(range(6))
        assert abs(len(pickle.dumps(lazy)) - len(blob)) < 512
        clone = pickle.loads(blob)
        assert clone.resident_clients() == []
        for cid in range(6):
            xa, ya = want[cid]
            xb, yb = clone.client_train[cid].arrays()
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_validate_and_bounds(self):
        world = make_world()
        _, lazy = build_pair(world, 4, n_train=32, seed=0)
        lazy.validate()
        with pytest.raises(IndexError):
            lazy.client_train[4]
        assert lazy.sample_shape == (1, 6, 6)

    def test_server_sets_match_eager(self):
        world = make_world()
        eager, lazy = build_pair(world, 4, n_train=32, seed=4)
        assert_datasets_equal(eager.server_test, lazy.server_test, "server test")
        assert_datasets_equal(eager.server_public, lazy.server_public, "server public")


def assert_bitwise_rows(block, full, rows):
    rows = np.asarray(rows, dtype=np.int64)
    np.testing.assert_array_equal(block.y, full.y[rows])
    np.testing.assert_array_equal(block.x.view(np.uint32), full.x[rows].view(np.uint32))


class TestSeekTable:
    @settings(max_examples=60, deadline=None)
    @given(
        channels=st.sampled_from([1, 3]),
        image_size=st.integers(4, 12),
        shift_max=st.sampled_from([0, 2]),
        noise_std=st.sampled_from([0.0, 0.3]),
        n=st.integers(1, 200),
        seed=st.integers(0, 30),
        data=st.data(),
    )
    def test_any_call_sequence_on_one_table_is_the_full_draw(
        self, channels, image_size, shift_max, noise_std, n, seed, data
    ):
        """Forward, backward, repeated, overlapping, duplicate and empty row
        sets, the final partial block and ``n < SEEK_STRIDE`` included."""
        spec = SyntheticSpec(
            num_classes=4, channels=channels, image_size=image_size,
            shift_max=shift_max, noise_std=noise_std,
        )
        world = SyntheticImageDataset(spec, seed=seed % 3)
        full = world.sample(n, seed=seed)
        table = NoiseSeekTable()
        row_sets = data.draw(
            st.lists(st.lists(st.integers(0, n - 1), max_size=24), min_size=1, max_size=6)
        )
        for rows in row_sets:
            block = world.sample_rows(n, np.array(rows, dtype=np.int64), seed=seed, seek=table)
            assert_bitwise_rows(block, full, rows)
        assert table.images_drawn <= sum(SEEK_STRIDE * (len(r) + 1) for r in row_sets) + n

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3 * SEEK_STRIDE + 1, 120),
        seed=st.integers(0, 30),
        blocks_per_chunk=st.integers(1, 3),
        data=st.data(),
    )
    def test_chunked_draw_is_the_full_draw(self, n, seed, blocks_per_chunk, data):
        """Chunks of 1–3 blocks, duplicate and unsorted rows, on a fresh and
        on a warm table: every call is split into several chunks, and its
        rows are bitwise those of the one-chunk full draw."""
        world = make_world(seed=seed % 3)
        full = world.sample(n, seed=seed)
        drawn = data.draw(st.lists(st.integers(0, n - 1), max_size=40))
        # four blocks (more than one chunk holds), unsorted, a repeat
        rows = drawn + [n - 1, 0, n - 1, 2 * SEEK_STRIDE, SEEK_STRIDE]
        per_image = int(np.prod(world.sample_shape))
        budget = blocks_per_chunk * 3 * 8 * SEEK_STRIDE * per_image
        table = NoiseSeekTable()
        chunks = []
        draw = table.draw
        table.draw = lambda *args: (chunks.append(args[3]), draw(*args))[1]
        with mock.patch.object(synthetic, "_CHUNK_BYTES", budget):
            for call in (rows, rows[::-1]):
                chunks.clear()
                block = world.sample_rows(n, np.array(call), seed=seed, seek=table)
                assert_bitwise_rows(block, full, call)
                assert len(chunks) >= 2
                assert all(len(np.unique(c // SEEK_STRIDE)) <= blocks_per_chunk for c in chunks)
                assert sorted(np.concatenate(chunks).tolist()) == sorted(call)

    def test_backward_then_forward_across_the_partial_block(self):
        world = make_world()
        n = 3 * SEEK_STRIDE + 3
        full = world.sample(n, seed=4)
        table = NoiseSeekTable()
        for rows in ([n - 1], [0], [n - 1, n - 2, n - 1], [SEEK_STRIDE], list(range(n))[::-1], []):
            assert_bitwise_rows(world.sample_rows(n, rows, seed=4, seek=table), full, rows)

    def test_table_refuses_a_draw_it_was_not_built_on(self):
        world = make_world()
        table = NoiseSeekTable()
        world.sample_rows(40, [7, 30], seed=1, seek=table)
        drawn = table.images_drawn
        with pytest.raises(ValueError, match="another corpus draw"):
            world.sample_rows(40, [7], seed=2, seek=table)
        with pytest.raises(ValueError, match="another corpus draw"):
            world.sample_rows(41, [7], seed=1, seek=table)
        with pytest.raises(ValueError, match="another corpus draw"):
            world.sample_rows(40, [7], seed=1, labels=np.zeros(40, dtype=np.int64), seek=table)
        with pytest.raises(ValueError, match="another corpus draw"):
            table.draw(np.random.Generator(np.random.MT19937(0)), 40, 36, np.array([7]))
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = table.columns[2]  # the bound noise-start state
        with pytest.raises(ValueError, match="ascending"):
            table.draw(rng, 40, 36, np.array([30, 7]))
        assert table.images_drawn == drawn  # refusals drew nothing
        full = world.sample(40, seed=1)
        assert_bitwise_rows(world.sample_rows(40, [3], seed=1, seek=table), full, [3])

    def test_sample_rows_no_longer_takes_chunk_elems(self):
        params = inspect.signature(SyntheticImageDataset.sample_rows).parameters
        assert "chunk_elems" not in params and "seek" in params
        with pytest.raises(TypeError):
            make_world().sample_rows(8, [0], chunk_elems=64)

    def test_federation_builds_its_table_late_and_never_pickles_it(self):
        world = make_world()
        eager, lazy = build_pair(world, 6, n_train=48, seed=9)
        assert lazy._seek is None  # not in the constructor: setup cost unchanged
        lazy.prefetch([1, 4])
        table = lazy._seek
        assert table is not None and table.images_drawn > 0
        lazy.prefetch([2])
        assert lazy._seek is table  # one table for the federation's life
        assert "_seek" not in lazy.__getstate__()  # snapshot bytes do not grow
        clone = pickle.loads(pickle.dumps(lazy))
        assert clone._seek is None and clone.resident_clients() == []
        for cid in range(6):
            assert_datasets_equal(eager.client_train[cid], clone.client_train[cid])
            assert_datasets_equal(eager.client_test[cid], clone.client_test[cid])

    @pytest.mark.parametrize("shift_max", [0, 2])
    @pytest.mark.parametrize("contrast_jitter", [0.0, 0.2])
    def test_warm_call_is_the_cold_call(self, shift_max, contrast_jitter):
        """The second call on a table replays the cached columns; its rows
        are bitwise those of a call on a fresh table and of the full draw."""
        spec = SyntheticSpec(
            num_classes=4, channels=3, image_size=6, shift_max=shift_max,
            contrast_jitter=contrast_jitter, noise_std=0.3,
        )
        world = SyntheticImageDataset(spec, seed=1)
        n, rows = 5 * SEEK_STRIDE + 3, [40, 2, 17, 17, 0, 29]
        full = world.sample(n, seed=6)
        table = NoiseSeekTable()
        world.sample_rows(n, [n - 1], seed=6, seek=table)
        warm = world.sample_rows(n, rows, seed=6, seek=table)
        cold = world.sample_rows(n, rows, seed=6, seek=NoiseSeekTable())
        assert warm.y.dtype == cold.y.dtype == np.int64
        assert_bitwise_rows(warm, full, rows)
        assert_bitwise_rows(cold, full, rows)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(labels=np.arange(40) % 4), dict(class_probs=[0.1, 0.2, 0.3, 0.4])],
        ids=["labels", "class-probs"],
    )
    def test_explicit_labels_draws_replay_every_call(self, kwargs):
        world = make_world()
        full = world.sample(40, seed=3, **kwargs)
        table = NoiseSeekTable()
        for rows in ([39], [5, 0, 12], [5]):
            assert_bitwise_rows(world.sample_rows(40, rows, seed=3, seek=table, **kwargs), full, rows)

    def test_explicit_labels_bypass_the_column_cache(self):
        world = make_world()
        for kwargs in (dict(labels=np.arange(40) % 4), dict(class_probs=[0.25] * 4)):
            table = NoiseSeekTable()
            world.sample_rows(40, [3], seed=3, seek=table, **kwargs)
            assert table.columns is None
        table = NoiseSeekTable()
        world.sample_rows(40, [3], seed=3, seek=table)
        y, proto, dh, dw, amp = table.columns[1]
        assert (y.dtype, proto.dtype, dh.dtype, dw.dtype) == (np.uint8, np.uint8, np.int8, np.int8)
        assert amp.dtype == np.float64 and amp.shape == (40,)

    def test_wide_label_range_round_trips(self):
        """300 classes no longer fit a byte: the cached labels widen to
        uint16, and the returned labels are the int64 draw."""
        spec = SyntheticSpec(num_classes=300, channels=1, image_size=4, low_freq=2)
        world = SyntheticImageDataset(spec, seed=0)
        n = 2_000
        full = world.sample(n, seed=1)
        assert full.y.max() > 255
        table = NoiseSeekTable()
        rows = np.argsort(full.y)[-50:]  # the largest labels
        for _ in range(2):
            block = world.sample_rows(n, rows, seed=1, seek=table)
            assert block.y.dtype == np.int64
            assert_bitwise_rows(block, full, rows)

    def test_pickle_carries_no_column_cache(self):
        num_clients = 400
        lazy = LazyFederatedDataset(
            make_world(), num_clients=num_clients, n_train=8 * num_clients, n_test=8,
            n_public=8, partitioner=IIDPartitioner(num_clients, seed=0), seed=0,
        )
        blob = pickle.dumps(lazy)
        lazy.prefetch(range(0, num_clients, 40))
        lazy.prefetch(range(1, num_clients, 40))  # a warm, cached call
        assert len(pickle.dumps(lazy)) - len(blob) < 512  # columns: 12 B × 3 200
        clone = pickle.loads(pickle.dumps(lazy))
        assert clone._seek is None

    def test_later_prefetch_draws_cohort_sized_work(self):
        """Work is counted, not timed: after the first pass a disjoint 1 %
        cohort costs at most one stride of images per wanted row."""
        num_clients, per_client = 5_000, 8
        n_train = num_clients * per_client
        lazy = LazyFederatedDataset(
            make_world(), num_clients=num_clients, n_train=n_train, n_test=24,
            n_public=16, partitioner=IIDPartitioner(num_clients, seed=0), seed=0,
        )
        lazy.prefetch(range(0, 50))
        first = lazy._seek.images_drawn
        assert first <= n_train
        lazy.prefetch(range(50, 100))
        later = lazy._seek.images_drawn - first
        wanted = sum(lazy.shard_size(c) for c in range(50, 100))
        assert 0 < later <= SEEK_STRIDE * wanted
        assert later < 0.10 * n_train

    def test_later_prefetch_holds_its_output_plus_the_budget(self, monkeypatch):
        """Traced, not timed: a later prefetch of a disjoint cohort of the
        same size evicts the departing shards first, then builds the new
        cohort chunk by chunk into one float32 array, so its peak above its
        start is that array plus the chunk budget plus O(rows) index
        arrays. A build that forms the whole cohort in float64 peaks at
        about five times the array."""
        budget = 256 << 10
        monkeypatch.setattr(synthetic, "_CHUNK_BYTES", budget)
        num_clients = 4_000
        lazy = LazyFederatedDataset(
            make_world(image_size=8), num_clients=num_clients, n_train=8 * num_clients,
            n_test=8, n_public=8, partitioner=IIDPartitioner(num_clients, seed=0), seed=0,
        )
        cohort = range(1, num_clients, 4)
        rows = sum(lazy.shard_size(c) for c in cohort)
        output = rows * int(np.prod(lazy.sample_shape)) * 4  # 2 MB
        tracemalloc.start()
        try:
            lazy.prefetch(range(0, num_clients, 4))
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            lazy.prefetch(cohort)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lazy.resident_clients() == list(cohort)
        assert peak - start <= output + budget + 64 * rows

    @pytest.mark.parametrize(
        "partitioner",
        [
            DirichletPartitioner(40, alpha=0.3, min_size=1, seed=4),
            QuantitySkewPartitioner(40, alpha=0.5, seed=2),
            IIDPartitioner(40, seed=0),
        ],
        ids=["dirichlet", "quantity-skew", "iid-two-sizes"],
    )
    def test_grouped_split_draw_is_the_per_shard_draw(self, partitioner):
        """One ``permuted`` call per run of equal-sized split shards makes
        the per-shard ``permutation`` draws of the loop it replaced, shards
        below the split threshold skipping theirs."""
        lazy = LazyFederatedDataset(
            make_world(), num_clients=40, n_train=410, n_test=8, n_public=8,
            partitioner=partitioner, seed=3,
        )
        sizes = [lazy.shard_size(c) for c in range(40)]
        assert len(set(sizes)) > 1  # mixed sizes
        rng = np.random.default_rng(lazy.seed + 17)
        want = np.concatenate([
            rng.permutation(size) if lazy.client_size(c) < size else np.arange(size)
            for c, size in enumerate(sizes)
        ])
        lazy._ensure_split_perms()
        np.testing.assert_array_equal(lazy._split_concat, want)

    def test_recipe_arrays_are_narrow(self):
        lazy = LazyFederatedDataset(
            make_world(), num_clients=300, n_train=70_000, n_test=8, n_public=8,
            partitioner=IIDPartitioner(300, seed=0), seed=0,
        )
        lazy._ensure_split_perms()
        assert lazy._order.dtype == lazy._offsets.dtype == np.uint32
        assert lazy._train_sizes.dtype == lazy._split_concat.dtype == np.uint8
        assert lazy.client_sizes().dtype == np.int64


def digest(*datasets):
    """SHA-256 of the datasets' bytes, in order: each one's length, ``x``
    as ``uint32`` and ``y`` as int64."""
    h = hashlib.sha256()
    for ds in datasets:
        x, y = ds.arrays()
        h.update(np.int64(len(y)).tobytes())
        h.update(np.ascontiguousarray(x, dtype=np.float32).view(np.uint32).tobytes())
        h.update(np.ascontiguousarray(y, dtype=np.int64).tobytes())
    return h.hexdigest()


def pin_world(channels, shift_max=2, noise_std=0.3):
    spec = SyntheticSpec(
        num_classes=4, channels=channels, image_size=6,
        shift_max=shift_max, noise_std=noise_std,
    )
    return SyntheticImageDataset(spec, seed=2)


#: ``world.sample(seed=5, **kwargs)`` per ``(channels, shift_max, noise_std)``
#: world: case → (world args, kwargs, digest).
SAMPLE_PINS = {
    "c1-shift0-noise0": (
        (1, 0, 0.0), dict(n=13),
        "acfce271c594ec49bf180b8a9173b69f1c51749236f6041db37699305600456e",
    ),
    "c1-shift0-noise.3": (
        (1, 0, 0.3), dict(n=13),
        "cd91f81ebea609044aa555b3c8e4d61411ad4018851c21440eceae896b97429d",
    ),
    "c1-shift2-noise0": (
        (1, 2, 0.0), dict(n=13),
        "9d3b3bbf0874f7d4476329757e5c4904a86496661458c5b76e627c79b52c7ec1",
    ),
    "c1-shift2-noise.3": (
        (1, 2, 0.3), dict(n=13),
        "f9e5608e5d9450ce05df5d9be00eee6081941d889b6e59f63c3643cefdbf6cfd",
    ),
    "c3-shift0-noise0": (
        (3, 0, 0.0), dict(n=13),
        "5e1d522b31ffe10630d6f3237d262215c6b98d0e15875973409540e6c442b6b9",
    ),
    "c3-shift0-noise.3": (
        (3, 0, 0.3), dict(n=13),
        "ff5ce5df980478d8a5f6ce0a954a00a2f0cc9f7bd55b5266ab84217433fd6ab4",
    ),
    "c3-shift2-noise0": (
        (3, 2, 0.0), dict(n=13),
        "0a1dff4f5f4d4cf577d8231a91459ac3c0560a6a3701e302f5d2a99293eaefd9",
    ),
    "c3-shift2-noise.3": (
        (3, 2, 0.3), dict(n=13),
        "cd88bb9b67a8cd2adcdaf921e06710db1ffa848047bbad8139898fba09df331f",
    ),
    "labels": (
        (3, 2, 0.3), dict(n=13, labels=np.arange(13) % 4),
        "4be14121fe0ed2a358269b5ec741b211ff514d1470f696664cfce463976a8f8f",
    ),
    "class-probs": (
        (1, 2, 0.3), dict(n=13, class_probs=[0.1, 0.2, 0.3, 0.4]),
        "582e67464faaf965390eac56e12c588643dbb614a18bb27388d7c05f6c9193f8",
    ),
    "n-below-stride": (
        (3, 2, 0.3), dict(n=SEEK_STRIDE - 3),
        "236ff2f31cee9f063bd2b65c35baeb3e259120308b0464a94dbd22b13e13c547",
    ),
    "n-multi-block": (
        (1, 2, 0.3), dict(n=4 * SEEK_STRIDE + 5),
        "c0c3f9d826db24afc02e2f8f1bec950fc23d821c34f757ea22100b15ab4d63fb",
    ),
}

#: Federations over ``pin_world(channels)``: case → (channels, builder
#: kwargs, digest of every client's train and test shard in client order,
#: then the server test and public sets).
FEDERATION_PINS = {
    "iid": (
        3, dict(num_clients=5, n_train=47, partitioner=IIDPartitioner(5, seed=1), seed=1),
        "fa60729fa37b1d18d84530dff10bce8c89f83c269a68a5d37531d9e62990d256",
    ),
    "dirichlet-tiny-shards": (  # shard sizes 11, 6, 4, 2, 2, 15
        1, dict(num_clients=6, n_train=40, alpha=0.15, seed=11),
        "96d13d8a584e0b7c4c63eb8132faff59d1ac7e457d641f217dfeadc97d1e3479",
    ),
    "quantity-skew": (
        1, dict(
            num_clients=5, n_train=50,
            partitioner=QuantitySkewPartitioner(5, alpha=0.5, seed=2), seed=2,
        ),
        "a123c06db388b9704f8f9be40fb3d9ac822d08ef051c564013c34c68bdd1e86e",
    ),
    "test-fraction-0.4": (
        3, dict(num_clients=4, n_train=48, alpha=0.5, local_test_fraction=0.4, seed=3),
        "f17525018227af9c35db139f70e74ca35494b41f2392249eae52ea4ad90255b6",
    ),
}


def federation_digest(builder, channels, kwargs):
    """``digest`` of every client's train and test shard, in client order,
    then the server test and public sets."""
    fed = builder(pin_world(channels), n_test=11, n_public=9, **kwargs)
    shards = [fed.client_train[c] for c in range(fed.num_clients)]
    tests = [fed.client_test[c] for c in range(fed.num_clients)]
    pairs = [ds for pair in zip(shards, tests) for ds in pair]
    return digest(*pairs, fed.server_test, fed.server_public)


class TestParentCapturedBytes:
    """Literal digests captured before the eager corpus draw and the eager
    shard builder became the row draw and the lazy recipe: with one
    implementation of each left, these are the anchor no second copy can
    drift along with."""

    @pytest.mark.parametrize("case", sorted(SAMPLE_PINS))
    def test_sample_bytes(self, case):
        world_args, kwargs, want = SAMPLE_PINS[case]
        assert digest(pin_world(*world_args).sample(seed=5, **kwargs)) == want

    @pytest.mark.parametrize(
        "builder", [build_federated_dataset, LazyFederatedDataset], ids=["eager", "lazy"]
    )
    @pytest.mark.parametrize("case", sorted(FEDERATION_PINS))
    def test_federation_bytes(self, case, builder):
        channels, kwargs, want = FEDERATION_PINS[case]
        assert federation_digest(builder, channels, kwargs) == want

    def test_every_pin_at_one_block_per_chunk(self, monkeypatch):
        """The chunk budget moves no byte: with at most ``SEEK_STRIDE``
        rows per chunk every draw and both builders give the pinned
        digests of the default budget."""
        monkeypatch.setattr(synthetic, "_CHUNK_BYTES", 1)
        for world_args, kwargs, want in SAMPLE_PINS.values():
            assert digest(pin_world(*world_args).sample(seed=5, **kwargs)) == want
        for channels, kwargs, want in FEDERATION_PINS.values():
            for builder in (build_federated_dataset, LazyFederatedDataset):
                assert federation_digest(builder, channels, kwargs) == want

    def test_pinned_federation_reaches_the_degenerate_rule(self):
        channels, kwargs, _ = FEDERATION_PINS["dirichlet-tiny-shards"]
        fed = LazyFederatedDataset(pin_world(channels), n_test=11, n_public=9, **kwargs)
        sizes = [fed.shard_size(c) for c in range(fed.num_clients)]
        assert min(sizes) < 4 <= max(sizes)
