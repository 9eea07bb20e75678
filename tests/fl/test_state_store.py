"""Per-client state containers: LRU residency, disk spill, value fidelity.

The containers in ``repro.fl.state_store`` promise that eviction and
spilling are *invisible* — state round-trips by value, iteration orders
are sorted, and snapshots are self-contained. These tests pin those
promises directly; the end-to-end trajectory invariance is covered by
``tests/fl/test_scale_parity.py``.
"""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest

from repro.fl.checkpoint import CheckpointError
from repro.fl.state_store import ClientModelBank, ClientStateStore, LazyFactoryBank
from repro.nn.models import MLP


def blob(cid, n=4):
    return {"w": np.full(n, float(cid)), "cid": cid}


def trainer_stub(cid):
    return {"cid": cid, "kind": "trainer"}


class TestClientStateStore:
    def test_dict_semantics_unbounded(self):
        s = ClientStateStore()
        s[3] = blob(3)
        s[1] = blob(1)
        assert len(s) == 2
        assert list(s) == [1, 3]  # sorted, not insertion order
        assert s[3]["cid"] == 3
        del s[1]
        assert 1 not in s
        with pytest.raises(KeyError):
            s[1]

    def test_lru_spill_and_promote(self, tmp_path):
        s = ClientStateStore(resident_limit=2, spill_dir=tmp_path)
        for cid in range(4):
            s[cid] = blob(cid)
        assert s.resident_count == 2
        assert s.spilled_count == 2
        assert sorted(tmp_path.glob("client-*.pkl")) != []
        # 0 was least recently used → spilled; reading promotes it back
        np.testing.assert_array_equal(s[0]["w"], blob(0)["w"])
        assert s.resident_count == 2  # promotion evicted someone else
        assert len(s) == 4
        assert list(s) == [0, 1, 2, 3]

    def test_peek_and_export_do_not_promote(self, tmp_path):
        s = ClientStateStore(resident_limit=1, spill_dir=tmp_path)
        for cid in range(3):
            s[cid] = blob(cid)
        spilled_before = s.spilled_count
        assert s.peek(0)["cid"] == 0
        out = s.export()
        assert s.spilled_count == spilled_before
        assert sorted(out) == [0, 1, 2]
        for cid in out:
            np.testing.assert_array_equal(out[cid]["w"], blob(cid)["w"])

    def test_fresh_write_supersedes_spill(self, tmp_path):
        s = ClientStateStore(resident_limit=1, spill_dir=tmp_path)
        s[0] = blob(0)
        s[1] = blob(1)  # spills 0
        s[0] = {"w": np.zeros(2), "cid": "new"}
        assert s[0]["cid"] == "new"

    def test_load_round_trip(self):
        a = ClientStateStore(resident_limit=2)
        for cid in range(5):
            a[cid] = blob(cid)
        b = ClientStateStore()
        b.load(a.export())
        assert list(b) == list(a)
        for cid in b:
            np.testing.assert_array_equal(b[cid]["w"], a.peek(cid)["w"])

    def test_pickle_is_self_contained(self):
        from pathlib import Path

        s = ClientStateStore(resident_limit=1)
        for cid in range(4):
            s[cid] = blob(cid)
        clone = pickle.loads(pickle.dumps(s))
        # the clone must not read the original's (temp-dir) spill files
        for p in Path(s._tmpdir.name).glob("client-*.pkl"):
            p.unlink()
        assert list(clone) == [0, 1, 2, 3]
        for cid in clone:
            np.testing.assert_array_equal(clone.peek(cid)["w"], blob(cid)["w"])

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientStateStore(resident_limit=0)


class TestLazyFactoryBank:
    def test_lazy_construction_and_cache(self):
        calls = []

        def factory(cid):
            calls.append(cid)
            return {"cid": cid}

        bank = LazyFactoryBank(factory, 5)
        assert len(bank) == 5
        assert bank[2]["cid"] == 2
        assert bank[2] is bank[2]  # cached
        assert calls == [2]
        with pytest.raises(IndexError):
            bank[5]

    def test_retain_drops_and_rebuilds(self):
        bank = LazyFactoryBank(lambda cid: {"cid": cid}, 4)
        first = bank[1]
        bank[3]
        bank.retain([3])
        assert bank.cached_clients() == [3]
        rebuilt = bank[1]
        assert rebuilt == first and rebuilt is not first

    def test_pickle_drops_cache(self):
        bank = LazyFactoryBank(trainer_stub, 3)
        bank[0]
        clone = pickle.loads(pickle.dumps(bank))
        assert clone.cached_clients() == []
        assert len(clone) == 3


def make_model(cid):
    return MLP(4, 3, hidden=(5,), seed=100 + cid)


class TestClientModelBank:
    def fns(self, n=4):
        return [functools.partial(make_model, c) for c in range(n)]

    def test_untouched_is_fresh_init(self):
        bank = ClientModelBank(self.fns())
        want = make_model(2).state_dict()
        got = bank[2].state_dict()
        for k in want:
            np.testing.assert_array_equal(want[k], got[k])
        assert bank.touched == [2]

    def test_identity_stable_when_unbounded(self):
        bank = ClientModelBank(self.fns())
        assert bank[1] is bank[1]
        for m, again in zip(list(bank), list(bank)):
            assert m is again

    def test_park_and_restore_bitwise(self):
        bank = ClientModelBank(self.fns(), resident_limit=1)
        m0 = bank[0]
        trained = {k: v + 1.0 for k, v in m0.state_dict().items()}
        m0.load_state_dict(trained)
        bank[1]  # evicts 0 → parked
        assert bank.live_count == 1
        back = bank[0].state_dict()
        for k in trained:
            np.testing.assert_array_equal(back[k], trained[k])

    def test_spill_counter_under_pressure(self, tmp_path):
        bank = ClientModelBank(self.fns(6), resident_limit=1, spill_dir=tmp_path)
        for cid in range(6):
            bank[cid]
        assert bank.live_count == 1
        assert bank.spilled_count > 0
        assert bank.touched == list(range(6))

    def test_load_state_live_and_parked(self):
        bank = ClientModelBank(self.fns(), resident_limit=1)
        live = bank[0]
        new = {k: np.zeros_like(v) for k, v in live.state_dict().items()}
        bank.load_state(0, new)  # live path
        np.testing.assert_array_equal(
            next(iter(bank[0].state_dict().values())),
            next(iter(new.values())),
        )
        bank.load_state(3, make_model(0).state_dict())  # parked path
        assert 3 in bank.touched

    def test_export_import_dict_of_touched(self):
        bank = ClientModelBank(self.fns())
        bank[1].load_state_dict(
            {k: v * 2 for k, v in bank[1].state_dict().items()}
        )
        payload = bank.export_states()
        assert sorted(payload) == [1]
        other = ClientModelBank(self.fns())
        other.load_states(payload)
        got, want = other[1].state_dict(), bank[1].state_dict()
        for k in want:
            np.testing.assert_array_equal(got[k], want[k])

    def test_load_states_refuses_a_list(self):
        """The all-clients list format is not a checkpoint payload: the
        bank refuses it, naming what it got, and keeps its touched models."""
        bank = ClientModelBank(self.fns())
        trained = {k: v * 2 for k, v in bank[1].state_dict().items()}
        bank[1].load_state_dict(trained)
        with pytest.raises(CheckpointError, match="got list"):
            bank.load_states([make_model(9).state_dict() for _ in range(4)])
        assert bank.touched == [1]
        got = bank[1].state_dict()
        for k in trained:
            np.testing.assert_array_equal(got[k], trained[k])

    def test_load_states_reverts_missing_to_fresh(self):
        bank = ClientModelBank(self.fns())
        bank[0].load_state_dict(
            {k: v + 5 for k, v in bank[0].state_dict().items()}
        )
        bank.load_states({})
        fresh = make_model(0).state_dict()
        got = bank[0].state_dict()
        for k in fresh:
            np.testing.assert_array_equal(got[k], fresh[k])

    def test_pickle_round_trip(self):
        bank = ClientModelBank(self.fns(), resident_limit=2)
        bank[0].load_state_dict(
            {k: v + 1 for k, v in bank[0].state_dict().items()}
        )
        clone = pickle.loads(pickle.dumps(bank))
        got, want = clone[0].state_dict(), bank[0].state_dict()
        for k in want:
            np.testing.assert_array_equal(got[k], want[k])

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientModelBank(self.fns(), resident_limit=0)
        with pytest.raises(IndexError):
            ClientModelBank(self.fns())[4]
