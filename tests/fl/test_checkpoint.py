"""Persistence round trips, atomicity under simulated crashes, and the
resumable RunCheckpoint format."""

import os

import numpy as np
import pytest

from repro.fl import checkpoint as ckpt_mod
from repro.fl.checkpoint import (
    RUN_CHECKPOINT_VERSION,
    CheckpointError,
    RunCheckpoint,
    load_history,
    load_model,
    load_run_checkpoint,
    run_checkpoint_path,
    save_history,
    save_model,
    save_run_checkpoint,
)
from repro.fl.history import RoundRecord, RunHistory
from repro.nn.models import MLP


def make_history(n=3):
    h = RunHistory("FedKEMF", "MLP", 4, 0.5, meta={"scale": "smoke"})
    for i in range(1, n + 1):
        h.append(
            RoundRecord(
                round_idx=i, accuracy=0.1 * i, loss=2.0 / i, cum_bytes=100 * i,
                round_bytes=100, num_selected=2, local_accuracy=0.2 * i, wall_time=0.5,
            )
        )
    return h


class TestHistoryRoundTrip:
    def test_full_fidelity(self, tmp_path):
        h = make_history()
        save_history(h, tmp_path / "run.json")
        back = load_history(tmp_path / "run.json")
        assert back.algorithm == h.algorithm
        assert back.meta == h.meta
        np.testing.assert_allclose(back.accuracies, h.accuracies)
        np.testing.assert_array_equal(back.cum_bytes, h.cum_bytes)
        np.testing.assert_allclose(back.local_accuracies, h.local_accuracies)

    def test_creates_parent_dirs(self, tmp_path):
        save_history(make_history(), tmp_path / "a" / "b" / "run.json")
        assert (tmp_path / "a" / "b" / "run.json").exists()


class TestModelRoundTrip:
    def test_weights_identical(self, tmp_path):
        m = MLP(8, 4, hidden=(16,), seed=0)
        save_model(m, tmp_path / "w.bin")
        m2 = MLP(8, 4, hidden=(16,), seed=99)
        load_model(tmp_path / "w.bin", into=m2)
        for (_, p1), (_, p2) in zip(m.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_raw_state_return(self, tmp_path):
        m = MLP(8, 4, seed=0)
        save_model(m.state_dict(), tmp_path / "w.bin")
        state = load_model(tmp_path / "w.bin")
        assert set(state) == set(m.state_dict())


def make_run_checkpoint(next_round=3):
    return RunCheckpoint(
        algorithm="FedAvg",
        fingerprint="deadbeefdeadbeef",
        next_round=next_round,
        global_state={"w": np.arange(6, dtype=np.float32).reshape(2, 3)},
        server_state={"velocity": None},
        meter_state={"uplink": {0: 10}, "downlink": {0: 20}, "round_bytes": [30]},
        history=make_history(next_round).to_dict(),
    )


class TestRunCheckpointFormat:
    def test_round_trip(self, tmp_path):
        ckpt = make_run_checkpoint()
        path = save_run_checkpoint(ckpt, tmp_path / "run.ckpt")
        back = load_run_checkpoint(path)
        assert back.algorithm == ckpt.algorithm
        assert back.fingerprint == ckpt.fingerprint
        assert back.next_round == ckpt.next_round
        assert back.version == RUN_CHECKPOINT_VERSION
        np.testing.assert_array_equal(back.global_state["w"], ckpt.global_state["w"])
        assert back.meter_state == ckpt.meter_state
        assert back.history == ckpt.history

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_run_checkpoint(p)

    def test_unknown_version_rejected(self, tmp_path):
        ckpt = make_run_checkpoint()
        ckpt.version = RUN_CHECKPOINT_VERSION + 1
        path = save_run_checkpoint(ckpt, tmp_path / "future.ckpt")
        with pytest.raises(ValueError, match="version"):
            load_run_checkpoint(path)

    def test_path_helper_rejects_traversal(self, tmp_path):
        with pytest.raises(ValueError):
            run_checkpoint_path(tmp_path, "../evil")
        with pytest.raises(ValueError):
            run_checkpoint_path(tmp_path, ".hidden")
        assert run_checkpoint_path(tmp_path, "ok").name == "ok.ckpt"

    def test_checkpoint_error_is_a_value_error(self):
        # back-compat: callers catching ValueError keep working
        assert issubclass(CheckpointError, ValueError)


class TestCorruptedCheckpoints:
    """Fuzz: truncations and bit flips of a valid checkpoint file must
    surface as :class:`CheckpointError` (or, for a lucky flip, still load a
    valid :class:`RunCheckpoint`) — never a raw pickle/struct/EOF
    traceback and never a non-RunCheckpoint object."""

    def _valid_bytes(self, tmp_path):
        path = save_run_checkpoint(make_run_checkpoint(), tmp_path / "good.ckpt")
        return path.read_bytes()

    def test_truncations_raise_checkpoint_error(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        p = tmp_path / "trunc.ckpt"
        # every prefix class: empty, partial magic, magic only, cut pickle
        for cut in (0, 2, 4, 5, len(data) // 2, len(data) - 1):
            p.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                load_run_checkpoint(p)

    def test_bit_flips_never_escape_the_error_type(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        p = tmp_path / "flip.ckpt"
        rng = np.random.default_rng(0)
        for _ in range(64):
            pos = int(rng.integers(len(data)))
            bit = 1 << int(rng.integers(8))
            corrupted = bytearray(data)
            corrupted[pos] ^= bit
            p.write_bytes(bytes(corrupted))
            try:
                back = load_run_checkpoint(p)
            except CheckpointError:
                continue  # the contract: a typed, catchable error
            # a flip in don't-care bytes may still deserialize — but then
            # it must be a real RunCheckpoint, not garbage
            assert isinstance(back, RunCheckpoint)

    def test_wrong_payload_type_rejected(self, tmp_path):
        import pickle

        p = tmp_path / "list.ckpt"
        p.write_bytes(b"RPCK" + pickle.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError, match="field mapping"):
            load_run_checkpoint(p)

    def test_unexpected_fields_rejected(self, tmp_path):
        import dataclasses
        import pickle

        raw = dataclasses.asdict(make_run_checkpoint())
        raw["bogus_field"] = 1
        p = tmp_path / "fields.ckpt"
        p.write_bytes(b"RPCK" + pickle.dumps(raw))
        with pytest.raises(CheckpointError, match="unexpected checkpoint fields"):
            load_run_checkpoint(p)


class TestAtomicity:
    """A crash at the worst possible instant leaves the old file intact."""

    def _crash_on_replace(self, monkeypatch):
        def exploding_replace(src, dst):
            raise OSError("simulated crash mid-rename")

        monkeypatch.setattr(ckpt_mod.os, "replace", exploding_replace)

    def test_history_survives_crashed_rewrite(self, tmp_path, monkeypatch):
        path = tmp_path / "run.json"
        save_history(make_history(3), path)
        before = path.read_bytes()
        self._crash_on_replace(monkeypatch)
        with pytest.raises(OSError):
            save_history(make_history(5), path)
        assert path.read_bytes() == before  # old version intact
        assert list(tmp_path.glob("*.tmp")) == []  # no debris

    def test_run_checkpoint_survives_crashed_rewrite(self, tmp_path, monkeypatch):
        path = tmp_path / "run.ckpt"
        save_run_checkpoint(make_run_checkpoint(2), path)
        self._crash_on_replace(monkeypatch)
        with pytest.raises(OSError):
            save_run_checkpoint(make_run_checkpoint(4), path)
        assert load_run_checkpoint(path).next_round == 2
        assert list(tmp_path.glob("*.tmp")) == []

    def test_interrupted_write_never_partial(self, tmp_path, monkeypatch):
        """Even a crash *during* the temp write leaves no partial target."""
        path = tmp_path / "run.json"

        real_fsync = os.fsync

        def exploding_fsync(fd):
            real_fsync(fd)
            raise OSError("simulated power loss")

        monkeypatch.setattr(ckpt_mod.os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            save_history(make_history(), path)
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
