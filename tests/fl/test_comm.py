"""Communication metering: the foundation of Tables 1–2."""

import contextlib
from collections import OrderedDict

import numpy as np
import pytest

from repro.data.federated import build_federated_dataset
from repro.data.partition import IIDPartitioner
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.fl.comm import Channel, CommMeter
from repro.fl.compression import make_codec
from repro.nn.models import MLP, resnet20
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


class TestBroadcast:
    def test_one_read_only_copy_inside_fresh_copies_outside(self):
        ch = Channel(CommMeter())
        state = small_state()
        with ch.broadcast():
            first = ch.download(0, state)
            # a new mapping over the same arrays is the same source
            assert ch.download(1, OrderedDict(state)) is first
            with pytest.raises(ValueError, match="read-only"):
                first["w"][0, 0] = -1.0
        outside = [ch.download(c, state) for c in (2, 3)]
        assert outside[0] is not outside[1]
        for out in outside:
            assert out["w"].flags.writeable and out["w"] is not first["w"]
            out["w"][...] = -1.0
        np.testing.assert_array_equal(state["w"], np.ones((4, 4)))
        np.testing.assert_array_equal(first["w"], state["w"])

    @pytest.mark.parametrize("codec", [None, "fp16", "q8"])
    @pytest.mark.parametrize("multiplier", [1.0, 2.0, 0.5])
    def test_charges_every_client_what_a_transfer_would(self, codec, multiplier):
        rng = np.random.default_rng(0)
        state = OrderedDict(
            w=rng.standard_normal((5, 3)).astype(np.float32), n=np.arange(3)
        )

        def transfers(broadcast):
            meter = CommMeter()
            ch = Channel(meter, codec=make_codec(codec))
            meter.begin_round(0)
            with ch.broadcast() if broadcast else contextlib.nullcontext():
                got = [ch.download(c, state, multiplier) for c in range(3)]
            return meter.state(), got

        (ledger, separate), (shared_ledger, shared_copies) = transfers(False), transfers(True)
        assert ledger == shared_ledger
        for per_client, shared in zip(separate, shared_copies):
            assert list(per_client) == list(shared)
            for k in per_client:
                assert per_client[k].dtype == shared[k].dtype
                np.testing.assert_array_equal(per_client[k], shared[k])

    def test_state_changed_in_place_between_rounds_is_reencoded(self):
        ch = Channel(CommMeter())
        state = small_state()
        with ch.broadcast():
            before = ch.download(0, state)
        state["w"] += 1.0  # the global model's arrays, updated in place
        with ch.broadcast():
            after = ch.download(0, state)
        np.testing.assert_array_equal(before["w"], np.ones((4, 4)))
        np.testing.assert_array_equal(after["w"], state["w"])

    def test_fresh_source_per_client_is_encoded_per_client(self):
        """A mapping built anew for each client (SCAFFOLD's fp32 server
        control) never hits, and the block pins only a few of them."""
        ch = Channel(CommMeter())
        state = small_state()
        with ch.broadcast():
            got = [
                ch.download(c, OrderedDict((k, v.copy()) for k, v in state.items()))
                for c in range(20)
            ]
            assert len(ch._broadcast) < 20
        assert len({id(g) for g in got}) == 20
        assert ch._broadcast is None


def _mlp():
    return MLP(3 * 8 * 8, num_classes=4, hidden=(8,), seed=1)


@pytest.mark.parametrize(
    "name, compression",
    [("fedavg", None), ("fednova", None), ("scaffold", None), ("fedavg", "q8"), ("fedavg", "fp16")],
)
def test_round_ledgers_match_per_client_transfers(tiny_world, monkeypatch, name, compression):
    """The round's broadcast block changes no byte any client is charged
    and no trajectory bit: the same run with the block made a no-op has
    the same per-client ledgers and fingerprint."""
    fed = build_federated_dataset(
        tiny_world, num_clients=6, n_train=120, n_test=24, n_public=24,
        partitioner=IIDPartitioner(6, seed=0), seed=0,
    )
    cfg = FLConfig(
        rounds=2, sample_ratio=0.5, local_epochs=1, batch_size=10, lr=0.05, seed=0,
        compression=compression,
    )

    def run():
        algo = ALGORITHM_REGISTRY.get(name)(_mlp, fed, cfg)
        history = algo.run()
        return algo.meter.state(), history.fingerprint()

    shared = run()
    monkeypatch.setattr(
        Channel, "broadcast", lambda self: contextlib.nullcontext(), raising=False
    )
    assert run() == shared
