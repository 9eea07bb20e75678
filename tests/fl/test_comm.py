"""Communication metering: the foundation of Tables 1–2."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.fl.comm import Channel, CommMeter
from repro.nn.models import resnet20
from repro.nn.serialization import state_dict_num_bytes


def small_state():
    return OrderedDict(w=np.ones((4, 4), dtype=np.float32), b=np.zeros(4, dtype=np.float32))


class TestMeter:
    def test_round_sequencing(self):
        m = CommMeter()
        m.begin_round(0)
        m.begin_round(1)
        with pytest.raises(ValueError):
            m.begin_round(1)  # reopening a closed round corrupts the ledger
        with pytest.raises(ValueError):
            m.begin_round(0)

    def test_resume_gap_backfilled(self):
        """A fresh meter may open at round r (checkpoint resume): earlier
        rounds appear as zero-byte entries so indices stay aligned."""
        m = CommMeter()
        m.begin_round(3)
        m.charge_up(0, 10)
        assert m.round_bytes == [0, 0, 0, 10]
        m.begin_round(4)
        m.charge_down(1, 5)
        assert m.round_bytes == [0, 0, 0, 10, 5]

    def test_state_round_trip(self):
        """state() is the plain-data ledger a run checkpoint stores;
        load_state() leaves the meter ready for the next round."""
        m = CommMeter()
        m.begin_round(0)
        m.charge_up(2, 10)
        m.begin_round(1)
        m.charge_down(0, 7)
        state = m.state()
        assert state == {"uplink": {2: 10}, "downlink": {0: 7}, "round_bytes": [10, 7]}
        assert all(type(state[k]) is dict for k in ("uplink", "downlink"))
        restored = CommMeter()
        # checkpoint formats may stringify the client ids
        restored.load_state({**state, "uplink": {"2": 10}})
        assert restored.state() == state
        restored.charge_up(5, 1)  # a late charge lands in the last open round
        assert restored.round_bytes == [10, 8]
        restored.begin_round(2)
        restored.charge_up(9, 3)  # unseen client: the ledgers are still defaultdicts
        assert restored.round_bytes == [10, 8, 3]

    def test_charges_accumulate(self):
        m = CommMeter()
        m.begin_round(0)
        m.charge_up(1, 100)
        m.charge_down(1, 50)
        m.charge_up(2, 25)
        assert m.total_up == 125 and m.total_down == 50 and m.total == 175
        assert m.round_bytes == [175]
        assert m.uplink[1] == 100 and m.downlink[1] == 50

    def test_negative_rejected(self):
        m = CommMeter()
        with pytest.raises(ValueError):
            m.charge_up(0, -1)

    def test_cumulative_by_round(self):
        m = CommMeter()
        for r, amount in enumerate([10, 20, 30]):
            m.begin_round(r)
            m.charge_up(0, amount)
        np.testing.assert_array_equal(m.cumulative_by_round(), [10, 30, 60])

    def test_total_gb(self):
        m = CommMeter()
        m.begin_round(0)
        m.charge_down(0, 2_000_000_000)
        assert m.total_gb() == 2.0


class TestChannel:
    def test_download_charges_exact_wire_size(self):
        m = CommMeter()
        ch = Channel(m)
        m.begin_round(0)
        state = small_state()
        out = ch.download(3, state)
        assert m.downlink[3] == state_dict_num_bytes(state)
        np.testing.assert_array_equal(out["w"], state["w"])

    def test_upload_returns_decoupled_copy(self):
        m = CommMeter()
        ch = Channel(m)
        m.begin_round(0)
        state = small_state()
        out = ch.upload(1, state)
        out["w"][...] = -1
        assert not np.allclose(state["w"], -1)

    def test_payload_multiplier(self):
        m = CommMeter()
        ch = Channel(m)
        m.begin_round(0)
        state = small_state()
        ch.download(0, state, payload_multiplier=2.0)
        assert m.downlink[0] == 2 * state_dict_num_bytes(state)

    def test_negative_multiplier_rejected(self):
        m = CommMeter()
        ch = Channel(m)
        m.begin_round(0)
        with pytest.raises(ValueError):
            ch.download(0, small_state(), payload_multiplier=-1.0)
        with pytest.raises(ValueError):
            ch.upload(0, small_state(), payload_multiplier=-0.5)
        assert m.total == 0  # nothing charged on the rejected transfers

    def test_zero_multiplier_charges_nothing(self):
        """0.0 is legal (e.g. a transfer the runtime fully suppressed) and
        must charge zero bytes while still delivering the payload."""
        m = CommMeter()
        ch = Channel(m)
        m.begin_round(0)
        state = small_state()
        out = ch.upload(2, state, payload_multiplier=0.0)
        assert m.total_up == 0
        np.testing.assert_array_equal(out["w"], state["w"])

    def test_real_model_payload_close_to_num_bytes(self):
        """Wire size ≈ raw tensor bytes + small header overhead (<1% at
        paper width, where Tables 1–2 are computed)."""
        model = resnet20(seed=0, width_mult=1.0)
        m = CommMeter()
        ch = Channel(m)
        m.begin_round(0)
        ch.upload(0, model.state_dict())
        raw = model.num_bytes()
        assert raw <= m.total_up < raw * 1.01
