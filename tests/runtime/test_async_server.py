"""Unit tests for the buffered-aggregation primitives.

The :mod:`repro.runtime.async_server` pieces — staleness weights, policy
construction, the event-queue buffer — are exercised here in isolation;
end-to-end regime behaviour (parity with sync, divergence, resume) lives
in ``tests/fl/test_async_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.runtime.async_server import (
    AGGREGATION_KINDS,
    BufferedAggregation,
    SyncAggregation,
    UpdateBuffer,
    make_aggregation_policy,
    staleness_weight,
)
from repro.runtime.executors import ClientUpdate
from repro.runtime.runtime import (
    FAILURE_REASONS,
    STALE_EVICTED,
    ordered_failure_counts,
)


def _update(cid: int) -> ClientUpdate:
    return ClientUpdate(client_id=cid, states={}, weight=float(cid + 1))


class TestStalenessWeight:
    def test_fresh_is_exactly_one(self):
        # the parity anchor: any alpha gives exactly 1.0 at staleness 0
        for alpha in (0.0, 0.5, 1.0, 3.7):
            assert staleness_weight(0, alpha) == 1.0

    def test_alpha_zero_is_uniform(self):
        # x ** -0.0 == 1.0 exactly in IEEE arithmetic — not approximately
        for s in range(20):
            assert staleness_weight(s, 0.0) == 1.0

    def test_polynomial_decay(self):
        assert staleness_weight(1, 1.0) == pytest.approx(0.5)
        assert staleness_weight(3, 0.5) == pytest.approx(0.5)
        assert staleness_weight(5, 0.5) < staleness_weight(2, 0.5) < 1.0

    def test_rejects_negatives(self):
        with pytest.raises(ValueError, match="staleness"):
            staleness_weight(-1, 0.5)
        with pytest.raises(ValueError, match="alpha"):
            staleness_weight(1, -0.5)


class TestPolicies:
    def test_factory_kinds(self):
        assert AGGREGATION_KINDS == ("sync", "buffered")
        assert isinstance(make_aggregation_policy("sync"), SyncAggregation)
        assert isinstance(make_aggregation_policy(None), SyncAggregation)
        assert isinstance(make_aggregation_policy(" Buffered "), BufferedAggregation)
        with pytest.raises(ValueError, match="aggregation"):
            make_aggregation_policy("fedbuff")

    def test_buffered_flags(self):
        assert not SyncAggregation().buffered
        policy = BufferedAggregation(buffer_size=3, staleness_alpha=1.0)
        assert policy.buffered
        assert policy.weight(1) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="buffer_size"):
            BufferedAggregation(buffer_size=0)
        with pytest.raises(ValueError, match="staleness_alpha"):
            BufferedAggregation(staleness_alpha=-1.0)
        with pytest.raises(ValueError, match="max_staleness"):
            BufferedAggregation(max_staleness=-1)


class TestUpdateBuffer:
    def make(self, **kw) -> UpdateBuffer:
        defaults = dict(buffer_size=2, staleness_alpha=0.5)
        defaults.update(kw)
        return UpdateBuffer(BufferedAggregation(**defaults))

    def test_drains_in_arrival_order(self):
        buf = self.make()
        buf.push(0, 3, 5.0, _update(3))
        buf.push(0, 1, 1.0, _update(1))
        buf.push(0, 2, 3.0, _update(2))
        merges, evicted = buf.drain(0, target_k=2)
        assert [m.update.client_id for m in merges] == [1, 2]
        assert not evicted
        assert len(buf) == 1  # client 3 stays pending

    def test_ties_break_on_client_id(self):
        buf = self.make()
        for cid in (5, 2, 4):
            buf.push(0, cid, 1.0, _update(cid))
        merges, _ = buf.drain(0, target_k=None)
        assert [m.update.client_id for m in merges] == [2, 4, 5]

    def test_staleness_and_discount(self):
        buf = self.make(staleness_alpha=1.0)
        buf.push(0, 0, 4.0, _update(0))  # will arrive late
        buf.advance(1.0)
        buf.push(1, 1, 0.5, _update(1))
        merges, _ = buf.drain(1, target_k=None)
        by_cid = {m.update.client_id: m for m in merges}
        assert by_cid[1].staleness == 0 and by_cid[1].discount == 1.0
        assert by_cid[0].staleness == 1 and by_cid[0].discount == pytest.approx(0.5)
        # discounted() rescales the aggregation weight, not the original
        assert by_cid[0].discounted().weight == pytest.approx(1.0 * 0.5)
        assert by_cid[0].update.weight == 1.0

    def test_fresh_merge_wait_is_the_exact_rel_time(self):
        # (now + t) - now is not IEEE-exactly t; the buffer must hand the
        # round loop the original rel_time for fresh merges (sync parity)
        buf = self.make()
        buf.advance(0.1)  # virtual_now = 0.1, a value with no exact binary rep
        t = 0.30000000000000004
        buf.push(1, 0, t, _update(0))
        merges, _ = buf.drain(1, target_k=None)
        assert merges[0].wait_s == t

    def test_max_staleness_eviction(self):
        buf = self.make(max_staleness=1)
        buf.push(0, 0, 9.0, _update(0))
        buf.push(2, 1, 0.1, _update(1))
        merges, evicted = buf.drain(2, target_k=2)
        assert [m.update.client_id for m in merges] == [1]
        assert evicted == {0: 2}  # staleness 2 > bound 1
        assert len(buf) == 0

    def test_eviction_does_not_consume_capacity(self):
        buf = self.make(buffer_size=1, max_staleness=0)
        buf.push(0, 0, 0.5, _update(0))  # becomes stale next round
        buf.advance(1.0)
        buf.push(1, 1, 0.5, _update(1))
        merges, evicted = buf.drain(1, target_k=1)
        # the stale head is evicted AND the fresh update still fills K=1
        assert evicted == {0: 1}
        assert [m.update.client_id for m in merges] == [1]

    def test_flush_drains_everything(self):
        buf = self.make(buffer_size=1)
        for cid in range(4):
            buf.push(0, cid, float(cid), _update(cid))
        merges, _ = buf.drain(0, target_k=None)
        assert len(merges) == 4 and len(buf) == 0

    def test_state_roundtrip_preserves_drain_order(self):
        buf = self.make(max_staleness=5)
        for cid, t in ((4, 2.0), (0, 7.0), (2, 2.0)):
            buf.push(0, cid, t, _update(cid))
        buf.advance(1.5)
        buf.push(1, 1, 0.25, _update(1))
        snapshot = buf.state()

        clone = self.make(max_staleness=5)
        clone.load_state(snapshot)
        assert clone.version == buf.version
        assert clone.virtual_now == buf.virtual_now
        assert clone.state() == snapshot
        a, _ = buf.drain(3, target_k=None)
        b, _ = clone.drain(3, target_k=None)
        assert [m.update.client_id for m in a] == [m.update.client_id for m in b]
        assert [m.wait_s for m in a] == [m.wait_s for m in b]

    def test_state_is_a_copy_not_an_alias(self):
        buf = self.make()
        update = ClientUpdate(client_id=0, states={"state": {"w": [1.0]}}, weight=1.0)
        buf.push(0, 0, 1.0, update)
        snapshot = buf.state()
        update.states["state"]["w"][0] = 99.0
        assert snapshot["pending"][0]["update"]["states"]["state"]["w"][0] == 1.0


class TestFailureTaxonomy:
    def test_stale_evicted_in_canonical_order(self):
        assert STALE_EVICTED == "stale-evicted"
        assert STALE_EVICTED in FAILURE_REASONS
        # taxonomy order: injected reasons first, terminal crash last
        assert FAILURE_REASONS.index(STALE_EVICTED) < FAILURE_REASONS.index("worker-crash")

    def test_failure_counts_deterministic_order(self):
        """Regression: counts are keyed in taxonomy order regardless of the
        order failures were recorded in — two equivalent runs render the
        same summary line."""
        a = {1: "surplus", 2: "dropout", 3: STALE_EVICTED, 4: "dropout"}
        b = {4: "dropout", 3: STALE_EVICTED, 2: "dropout", 1: "surplus"}
        counts_a = ordered_failure_counts(a.values())
        counts_b = ordered_failure_counts(b.values())
        assert list(counts_a) == list(counts_b)
        assert list(counts_a) == ["dropout", "surplus", STALE_EVICTED]
        assert counts_a == {"dropout": 2, "surplus": 1, STALE_EVICTED: 1}

    def test_unknown_reasons_sort_lexicographically_after_taxonomy(self):
        counts = ordered_failure_counts(
            ["zz-custom", "dropout", "aa-custom", "deadline"]
        )
        assert list(counts) == ["dropout", "deadline", "aa-custom", "zz-custom"]
