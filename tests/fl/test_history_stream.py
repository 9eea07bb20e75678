"""Streaming histories: JSONL sink fidelity, incremental fingerprints,
typed corruption errors.

Mirrors the checkpoint suite's fuzz style: every malformed sink file must
raise :class:`HistoryStreamError` — never a bare ``json``/``KeyError`` —
and a streamed run's fingerprint must be byte-for-byte the in-memory one.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.fl.history import HistoryStreamError, RoundRecord, RunHistory


def record(i, **over):
    base = dict(
        round_idx=i, accuracy=0.05 * i, loss=2.0 / i, cum_bytes=100 * i,
        round_bytes=100, num_selected=3, local_accuracy=None if i % 3 else 0.1 * i,
        wall_time=0.25 * i, num_sampled=4, num_failed=i % 2,
        failures={7: "dropout"} if i % 2 else {},
        sim_time_s=0.5, staleness={0: 3}, buffer_len=i % 4,
    )
    base.update(over)
    return RoundRecord(**base)


def make_pair(n=20, keep=4, path=None):
    """The same run appended twice: once in-memory, once streamed."""
    mem = RunHistory("FedAvg", "MLP", 40, 0.25, meta={"scale": "smoke"})
    streamed = RunHistory("FedAvg", "MLP", 40, 0.25, meta={"scale": "smoke"})
    if path is not None:
        streamed.stream_to(path, keep_records=keep)
    for i in range(1, n + 1):
        mem.append(record(i))
        streamed.append(record(i))
    return mem, streamed


class TestStreamingParity:
    def test_fingerprint_matches_in_memory(self, tmp_path):
        mem, streamed = make_pair(path=tmp_path / "h.jsonl")
        assert streamed.streaming
        assert streamed.fingerprint() == mem.fingerprint()

    def test_ram_stays_bounded(self, tmp_path):
        _, streamed = make_pair(n=50, keep=4, path=tmp_path / "h.jsonl")
        assert len(streamed.records) <= 4
        assert streamed.num_rounds == 50

    def test_series_read_through_the_sink(self, tmp_path):
        mem, streamed = make_pair(path=tmp_path / "h.jsonl")
        np.testing.assert_allclose(streamed.accuracies, mem.accuracies)
        np.testing.assert_allclose(streamed.losses, mem.losses)
        np.testing.assert_array_equal(streamed.cum_bytes, mem.cum_bytes)
        np.testing.assert_allclose(
            streamed.local_accuracies, mem.local_accuracies
        )
        np.testing.assert_array_equal(streamed.participation, mem.participation)
        assert streamed.total_failures() == mem.total_failures()
        assert streamed.staleness_histogram() == mem.staleness_histogram()
        assert streamed.bytes_at_round(7) == mem.bytes_at_round(7)
        assert streamed.to_dict() == mem.to_dict()

    def test_backlog_then_stream(self, tmp_path):
        """Attaching mid-run (the resume path) re-streams the backlog."""
        mem = RunHistory("FedAvg", "MLP", 40, 0.25)
        late = RunHistory("FedAvg", "MLP", 40, 0.25)
        for i in range(1, 6):
            mem.append(record(i))
            late.append(record(i))
        late.stream_to(tmp_path / "late.jsonl", keep_records=2)
        for i in range(6, 12):
            mem.append(record(i))
            late.append(record(i))
        assert late.fingerprint() == mem.fingerprint()
        assert late.num_rounds == 11

    @pytest.mark.parametrize("same_path", [False, True], ids=["new-path", "same-path"])
    def test_reattach_keeps_flushed_rounds(self, tmp_path, same_path):
        """Re-attaching a streaming history rewrites the sink from every
        round, not just the in-RAM tail; onto its own sink it goes through
        a sibling temp file."""
        mem, streamed = make_pair(n=5, keep=2, path=tmp_path / "h.jsonl")
        target = tmp_path / ("h.jsonl" if same_path else "moved.jsonl")
        streamed.stream_to(target, keep_records=2)
        assert streamed.num_rounds == 5
        assert len(streamed.records) == 2
        assert streamed.fingerprint() == mem.fingerprint()
        mem.append(record(6))
        streamed.append(record(6))
        assert streamed.fingerprint() == mem.fingerprint()
        assert RunHistory.from_jsonl(target).to_dict() == mem.to_dict()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_append_after_close_reopens(self, tmp_path):
        mem, streamed = make_pair(n=5, path=tmp_path / "h.jsonl")
        streamed.close_stream()
        assert streamed.streaming  # still in streaming mode
        mem.append(record(6))
        streamed.append(record(6))
        assert streamed.fingerprint() == mem.fingerprint()

    def test_pickle_detaches_with_full_records(self, tmp_path):
        mem, streamed = make_pair(n=15, keep=3, path=tmp_path / "h.jsonl")
        clone = pickle.loads(pickle.dumps(streamed))
        assert not clone.streaming
        assert len(clone.records) == 15
        assert clone.fingerprint() == mem.fingerprint()

    def test_empty_streamed_history_fingerprint(self, tmp_path):
        mem = RunHistory("FedAvg", "MLP", 4, 0.5)
        streamed = RunHistory("FedAvg", "MLP", 4, 0.5)
        streamed.stream_to(tmp_path / "e.jsonl")
        assert streamed.fingerprint() == mem.fingerprint()

    def test_keep_records_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunHistory("A", "M", 2, 0.5).stream_to(tmp_path / "x.jsonl", keep_records=0)

    def test_non_contiguous_append_rejected(self, tmp_path):
        h = RunHistory("A", "M", 2, 0.5)
        h.stream_to(tmp_path / "x.jsonl")
        h.append(record(1))
        with pytest.raises(ValueError):
            h.append(record(3))


class TestFromJsonl:
    def test_round_trips_through_from_dict(self, tmp_path):
        mem, streamed = make_pair(path=tmp_path / "h.jsonl")
        streamed.close_stream()
        back = RunHistory.from_jsonl(tmp_path / "h.jsonl")
        assert back.to_dict() == mem.to_dict()
        assert back.fingerprint() == mem.fingerprint()
        assert back.meta == {"scale": "smoke"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(HistoryStreamError, match="cannot read"):
            RunHistory.from_jsonl(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text("")
        with pytest.raises(HistoryStreamError, match="empty"):
            RunHistory.from_jsonl(p)

    def test_truncated_tail_line(self, tmp_path):
        """A process killed mid-write leaves a line without its newline —
        a hard typed error, never silently-dropped rounds."""
        p = tmp_path / "h.jsonl"
        make_pair(n=6, path=p)[1].close_stream()
        data = p.read_text()
        p.write_text(data[:-7])  # chop through the last record
        with pytest.raises(HistoryStreamError, match="truncated"):
            RunHistory.from_jsonl(p)

    def test_corrupt_header(self, tmp_path):
        p = tmp_path / "h.jsonl"
        p.write_text("{not json\n")
        with pytest.raises(HistoryStreamError, match="corrupt header"):
            RunHistory.from_jsonl(p)

    def test_wrong_format_marker(self, tmp_path):
        p = tmp_path / "h.jsonl"
        p.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(HistoryStreamError, match="format marker"):
            RunHistory.from_jsonl(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "h.jsonl"
        make_pair(n=2, path=p)[1].close_stream()
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(HistoryStreamError, match="version"):
            RunHistory.from_jsonl(p)

    def test_corrupt_record_line_reports_position(self, tmp_path):
        p = tmp_path / "h.jsonl"
        make_pair(n=4, path=p)[1].close_stream()
        lines = p.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # mangle record 2
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(HistoryStreamError, match="line 3"):
            RunHistory.from_jsonl(p)

    def test_corrupt_sink_fails_typed_on_read_back(self, tmp_path):
        """A streamed history re-reads its flushed rounds through the same
        checked reader as from_jsonl."""
        p = tmp_path / "h.jsonl"
        _, streamed = make_pair(n=5, keep=2, path=p)
        streamed.close_stream()
        lines = p.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # mangle flushed record 2
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(HistoryStreamError, match="line 3"):
            streamed.fingerprint()
        with pytest.raises(HistoryStreamError, match="line 3"):
            streamed.accuracies

    def test_non_object_record_line(self, tmp_path):
        p = tmp_path / "h.jsonl"
        make_pair(n=2, path=p)[1].close_stream()
        with p.open("a") as f:
            f.write("[1, 2, 3]\n")
        with pytest.raises(HistoryStreamError, match="not a round object"):
            RunHistory.from_jsonl(p)

    def test_invalid_payload_is_typed(self, tmp_path):
        p = tmp_path / "h.jsonl"
        make_pair(n=2, path=p)[1].close_stream()
        lines = p.read_text().splitlines()
        bad = json.loads(lines[1])
        del bad["accuracy"]
        lines[1] = json.dumps(bad)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(HistoryStreamError, match="invalid history stream"):
            RunHistory.from_jsonl(p)

    def test_fuzz_single_byte_flips_never_raise_untyped(self, tmp_path):
        """Any single-byte corruption must surface as HistoryStreamError
        or load as a (different) valid history — never a bare json/KeyError
        (mirrors the checkpoint fuzz contract)."""
        p = tmp_path / "h.jsonl"
        make_pair(n=3, path=p)[1].close_stream()
        data = bytearray(p.read_bytes())
        rng = np.random.default_rng(0)
        for _ in range(40):
            pos = int(rng.integers(0, len(data)))
            corrupted = bytearray(data)
            corrupted[pos] ^= int(rng.integers(1, 256))
            p.write_bytes(bytes(corrupted))
            try:
                RunHistory.from_jsonl(p)
            except HistoryStreamError:
                pass
