"""Run history: one record per communication round.

The experiment harness turns these series into the paper's tables and
figures, so the record captures exactly the measured axes: global accuracy,
cumulative communication bytes, and (for multi-model runs) average local
accuracy.

For multi-thousand-round runs the in-memory record list is itself a scale
liability, so a history can be attached to a **streaming JSONL sink**
(:meth:`RunHistory.stream_to`): every appended record is written as one
JSON line and the in-RAM list is trimmed to a short tail, keeping resident
records O(1) in the round count. The sink is transparent — aggregate
series (``accuracies``, ``participation``, …) and :meth:`fingerprint`
re-read the file, so streaming never changes the fingerprint. Stream files
round-trip via :meth:`RunHistory.from_jsonl`. Both read the sink through
one checked reader, so a truncated or corrupt file raises
:class:`HistoryStreamError` (not bare ``json`` errors) either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["RoundRecord", "RunHistory", "HistoryStreamError"]

_STREAM_FORMAT = "repro-history-jsonl"
_STREAM_VERSION = 1


class HistoryStreamError(RuntimeError):
    """A streamed history file is unreadable, truncated, or corrupt."""


@dataclass
class RoundRecord:
    """Measurements at the end of one communication round.

    ``num_selected`` counts the clients whose updates were *aggregated*
    (participation); under the fault-injecting runtime that can be fewer
    than ``num_sampled``. ``failures`` maps client id → failure reason
    (``dropout`` / ``uplink-lost`` / ``rejected-update`` (failed the
    server-boundary validation gate) / ``deadline`` / ``surplus`` /
    ``stale-evicted``, plus ``worker-crash`` when a real executor worker
    died beyond recovery) and ``sim_time_s`` is the virtual-clock round
    time (0 when the runtime is not simulating time).

    ``staleness`` histograms the aggregated updates by server-version lag
    (``{0: n}`` for a synchronous round; buffered rounds can merge updates
    dispatched several versions ago) and ``buffer_len`` is the server
    buffer's occupancy after this round's aggregation (0 when
    synchronous).
    """

    round_idx: int  # 1-based
    accuracy: float
    loss: float
    cum_bytes: int
    round_bytes: int
    num_selected: int
    local_accuracy: float | None = None
    wall_time: float = 0.0
    num_sampled: int | None = None
    num_failed: int = 0
    failures: dict = field(default_factory=dict)
    sim_time_s: float = 0.0
    staleness: dict = field(default_factory=dict)
    buffer_len: int = 0


# The record's JSON form, derived from its fields in declaration order: the
# one renamed key (``round_idx`` is ``"round"`` on disk), int fields cast
# (NumPy counters serialize as plain ints), dict fields keyed by ints in
# memory and by their strings in JSON. A key missing from an old file takes
# the field's default; a field without one is required.
_CODEC = [
    (f.name, "round" if f.name == "round_idx" else f.name, f.type,
     f.default is MISSING and f.default_factory is MISSING)
    for f in fields(RoundRecord)
]


def _round_to_dict(r: RoundRecord) -> dict:
    out = {}
    for name, key, kind, _required in _CODEC:
        value = getattr(r, name)
        if kind == "int":
            value = int(value)
        elif kind == "dict":
            value = {str(k): v for k, v in value.items()}
        out[key] = value
    return out


def _record_from_dict(r: dict) -> RoundRecord:
    kwargs = {}
    for name, key, kind, required in _CODEC:
        if required or key in r:
            value = r[key]
            kwargs[name] = {int(k): v for k, v in value.items()} if kind == "dict" else value
    return RoundRecord(**kwargs)


def _read_stream(path: Path) -> Iterator:
    """Yield the sink's header dict, then one :class:`RoundRecord` per line.

    The one reader behind :meth:`RunHistory.from_jsonl` and a streamed
    history's :meth:`~RunHistory.iter_records`; it holds one line at a time.

    Raises :class:`HistoryStreamError` — never a bare ``json`` or
    ``KeyError`` — when the file is unreadable or empty, has a bad header,
    or carries a corrupt record line. A final line without its newline
    terminator (a process killed mid-write) is a hard error too, not
    silently dropped data.
    """
    lineno = 0
    try:
        with path.open("r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.endswith("\n"):
                    raise HistoryStreamError(
                        f"truncated history stream {path}: final line is missing its "
                        "newline terminator (process killed mid-write?)"
                    )
                what = "header line" if lineno == 1 else f"record at line {lineno}"
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise HistoryStreamError(f"corrupt {what} in {path}: {exc}") from exc
                if lineno == 1:
                    if not isinstance(raw, dict) or raw.get("format") != _STREAM_FORMAT:
                        raise HistoryStreamError(
                            f"{path} is not a history stream (missing format marker "
                            f"{_STREAM_FORMAT!r})"
                        )
                    if raw.get("version") != _STREAM_VERSION:
                        raise HistoryStreamError(
                            f"unsupported history stream version {raw.get('version')!r} "
                            f"in {path} (supported: {_STREAM_VERSION})"
                        )
                    yield raw
                    continue
                if not isinstance(raw, dict) or "round" not in raw:
                    raise HistoryStreamError(f"corrupt {what} of {path}: not a round object")
                try:
                    record = _record_from_dict(raw)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise HistoryStreamError(
                        f"invalid history stream {path}: {what}: {exc!r}"
                    ) from exc
                yield record
    except (OSError, UnicodeDecodeError) as exc:
        raise HistoryStreamError(f"cannot read history stream {path}: {exc}") from exc
    if lineno == 0:
        raise HistoryStreamError(f"empty history stream: {path}")


def _fingerprint_record_bytes(round_dict: dict) -> bytes:
    """One round's contribution to the fingerprint payload (wall-clock
    durations are machine noise, excluded from the determinism contract)."""
    trimmed = {k: v for k, v in round_dict.items() if k != "wall_time"}
    return json.dumps(trimmed, sort_keys=True).encode("utf-8")


@dataclass
class RunHistory:
    """Accuracy / communication series for one FL run."""

    algorithm: str
    model: str
    num_clients: int
    sample_ratio: float
    records: list[RoundRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._sink_path: Path | None = None
        self._sink_file = None
        self._keep_records: int = 1
        self._streamed: int = 0  # records written to the sink so far
        self._last_round: int | None = (
            self.records[-1].round_idx if self.records else None
        )

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #

    def append(self, record: RoundRecord) -> None:
        if self._last_round is not None and record.round_idx != self._last_round + 1:
            raise ValueError("round records must be appended sequentially")
        self.records.append(record)
        self._last_round = record.round_idx
        if self._sink_path is not None:
            self._write_record(record)
            del self.records[: max(0, len(self.records) - self._keep_records)]

    # ------------------------------------------------------------------ #
    # streaming sink
    # ------------------------------------------------------------------ #

    @property
    def streaming(self) -> bool:
        """Whether a JSONL sink is attached."""
        return self._sink_path is not None

    def stream_to(self, path, keep_records: int = 8) -> "RunHistory":
        """Attach a streaming JSONL sink at ``path``.

        The file is (re)written from scratch — a header line carrying the
        run identity, then one line per already-appended record — and every
        subsequent :meth:`append` adds one line and trims the in-RAM list
        to the last ``keep_records`` records. Re-attaching after a resume
        therefore rewrites the sink to match the restored history exactly.
        A history that is already streaming is rewritten from
        :meth:`iter_records` into a sibling ``*.tmp`` file moved into place
        with ``os.replace``, so the flushed rounds survive even when
        ``path`` is the current sink, and RAM never holds more than the
        in-RAM tail.

        The header snapshots ``meta`` at attach time; later ``meta``
        mutations stay in-memory only (``meta`` is outside the fingerprint
        contract). Returns ``self`` for chaining.
        """
        if keep_records < 1:
            raise ValueError(f"keep_records must be >= 1; got {keep_records}")
        self.close_stream()
        sink = Path(path)
        sink.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "format": _STREAM_FORMAT,
            "version": _STREAM_VERSION,
            "algorithm": self.algorithm,
            "model": self.model,
            "num_clients": self.num_clients,
            "sample_ratio": self.sample_ratio,
            "meta": dict(self.meta),
        }
        tmp = sink.with_name(sink.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                handle.write(json.dumps(header, sort_keys=True) + "\n")
                streamed = 0
                for record in self.iter_records():
                    handle.write(json.dumps(_round_to_dict(record), sort_keys=True) + "\n")
                    streamed += 1
            os.replace(tmp, sink)
        finally:
            tmp.unlink(missing_ok=True)  # only survives if the rewrite failed
        self._sink_path = sink
        self._keep_records = int(keep_records)
        self._streamed = streamed
        del self.records[: max(0, len(self.records) - self._keep_records)]
        return self

    def close_stream(self) -> None:
        """Flush and close the sink file handle. The history stays in
        streaming mode (series and the fingerprint re-read the file); only
        appending would reopen the file."""
        if self._sink_file is not None:
            self._sink_file.flush()
            self._sink_file.close()
            self._sink_file = None

    def _write_record(self, record: RoundRecord) -> None:
        if self._sink_file is None:  # first append after stream_to()/close_stream()
            self._sink_file = self._sink_path.open("a", encoding="utf-8")
        self._sink_file.write(json.dumps(_round_to_dict(record), sort_keys=True) + "\n")
        self._sink_file.flush()
        self._streamed += 1

    def iter_records(self):
        """Iterate every round record, oldest first. In streaming mode the
        already-flushed prefix is re-read from the sink file so the full
        series never has to be RAM-resident at once."""
        if self._sink_path is None:
            yield from self.records
            return
        if self._sink_file is not None:
            self._sink_file.flush()
        with contextlib.closing(_read_stream(self._sink_path)) as lines:
            next(lines)  # header
            yield from itertools.islice(lines, self._streamed - len(self.records))
        yield from self.records

    # ------------------------------------------------------------------ #
    # series
    # ------------------------------------------------------------------ #

    @property
    def num_rounds(self) -> int:
        return self._streamed if self._sink_path is not None else len(self.records)

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.iter_records()])

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.iter_records()])

    @property
    def cum_bytes(self) -> np.ndarray:
        return np.array([r.cum_bytes for r in self.iter_records()], dtype=np.int64)

    @property
    def local_accuracies(self) -> np.ndarray:
        return np.array(
            [
                r.local_accuracy if r.local_accuracy is not None else np.nan
                for r in self.iter_records()
            ]
        )

    @property
    def final_accuracy(self) -> float:
        if not self.records:
            raise ValueError("empty history")
        return self.records[-1].accuracy

    @property
    def best_accuracy(self) -> float:
        return float(self.accuracies.max())

    @property
    def total_bytes(self) -> int:
        return int(self.records[-1].cum_bytes) if self.records else 0

    @property
    def participation(self) -> np.ndarray:
        """Aggregated-client count per round."""
        return np.array([r.num_selected for r in self.iter_records()], dtype=np.int64)

    @property
    def sim_times(self) -> np.ndarray:
        """Virtual-clock round times (seconds)."""
        return np.array([r.sim_time_s for r in self.iter_records()])

    @property
    def buffer_occupancy(self) -> np.ndarray:
        """Server-buffer occupancy after each round's aggregation (all
        zeros for synchronous runs)."""
        return np.array([r.buffer_len for r in self.iter_records()], dtype=np.int64)

    def total_failures(self) -> dict:
        """Failure counts across the run, keyed by reason, in the
        canonical taxonomy order (deterministic)."""
        from repro.runtime.runtime import ordered_failure_counts

        return ordered_failure_counts(
            reason for r in self.iter_records() for reason in r.failures.values()
        )

    def staleness_histogram(self) -> dict:
        """Aggregated-update counts by staleness across the run.

        Keys are server-version lags (0 = merged in the dispatch round),
        sorted ascending; a synchronous run has only key 0.
        """
        counts: dict[int, int] = {}
        for r in self.iter_records():
            for s, n in r.staleness.items():
                counts[int(s)] = counts.get(int(s), 0) + int(n)
        return {s: counts[s] for s in sorted(counts)}

    def bytes_at_round(self, round_1based: int) -> int:
        """Cumulative traffic after ``round_1based`` rounds."""
        if not 1 <= round_1based <= self.num_rounds:
            raise IndexError(f"round {round_1based} outside history of {self.num_rounds}")
        for r in self.iter_records():
            if r.round_idx == round_1based:
                return int(r.cum_bytes)
        raise IndexError(f"round {round_1based} missing from history")

    def round_cost_per_client_mb(self) -> float:
        """Mean per-round, per-selected-client traffic in MB — the paper's
        'Round/Client' column."""
        per = [r.round_bytes / max(r.num_selected, 1) for r in self.iter_records()]
        if not per:
            return 0.0
        return float(np.mean(per)) / 1e6

    # ------------------------------------------------------------------ #
    # identity / serialization
    # ------------------------------------------------------------------ #

    def fingerprint(self) -> str:
        """Content hash over everything a resumed run must reproduce.

        Wall-clock round durations (``wall_time``) and free-form ``meta``
        vary between machines and between a straight-through run and a
        kill-and-resume run; neither is part of the determinism contract,
        so both are excluded. Two histories with the same fingerprint made
        the same measurements round for round.

        The digest sees the byte stream ``json.dumps(payload,
        sort_keys=True)`` produces for the identity and the rounds, one
        record at a time from :meth:`iter_records`: the sorted keys put
        ``"rounds"`` between ``"num_clients"`` and ``"sample_ratio"``, so
        head, records and tail compose, and a streamed history hashes its
        sink without holding its rounds in RAM.
        """
        head = json.dumps(
            {
                "algorithm": self.algorithm,
                "model": self.model,
                "num_clients": self.num_clients,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(head[:-1].encode("utf-8") + b', "rounds": [')
        for i, record in enumerate(self.iter_records()):
            if i:
                digest.update(b", ")
            digest.update(_fingerprint_record_bytes(_round_to_dict(record)))
        tail = "], \"sample_ratio\": " + json.dumps(self.sample_ratio) + "}"
        digest.update(tail.encode("utf-8"))
        return digest.hexdigest()[:16]

    @classmethod
    def from_dict(cls, raw: dict) -> "RunHistory":
        """Inverse of :meth:`to_dict` (checkpoint and JSON loading)."""
        history = cls(
            algorithm=raw["algorithm"],
            model=raw["model"],
            num_clients=raw["num_clients"],
            sample_ratio=raw["sample_ratio"],
            meta=dict(raw.get("meta", {})),
        )
        for r in raw.get("rounds", []):
            history.append(_record_from_dict(r))
        return history

    @classmethod
    def from_jsonl(cls, path) -> "RunHistory":
        """Load a history from a streaming sink file.

        Raises :class:`HistoryStreamError` — never a bare ``json`` or
        ``KeyError`` — when the file is unreadable, has a bad header, or
        carries truncated/corrupt record lines (a process killed mid-write
        leaves a final line without its newline terminator; that tail is a
        hard error, not silently dropped data).
        """
        path = Path(path)
        lines = _read_stream(path)
        header = next(lines)
        try:
            history = cls(
                algorithm=header.get("algorithm"),
                model=header.get("model"),
                num_clients=header.get("num_clients"),
                sample_ratio=header.get("sample_ratio"),
                meta=dict(header.get("meta", {})),
            )
            for record in lines:
                history.append(record)
        except (TypeError, ValueError) as exc:
            raise HistoryStreamError(f"invalid history stream {path}: {exc}") from exc
        return history

    def to_dict(self) -> dict:
        """Plain-dict export (JSON-serializable) for logging/analysis.
        Streamed histories re-read the sink so the export is complete."""
        return {
            "algorithm": self.algorithm,
            "model": self.model,
            "num_clients": self.num_clients,
            "sample_ratio": self.sample_ratio,
            "meta": dict(self.meta),
            "rounds": [_round_to_dict(r) for r in self.iter_records()],
        }

    def __getstate__(self) -> dict:
        # Pickling a streamed history detaches it: open file handles don't
        # pickle, so materialize the full record list and hand over a plain
        # in-memory history.
        state = dict(self.__dict__)
        state["records"] = list(self.iter_records())
        state["_sink_path"] = None
        state["_sink_file"] = None
        state["_streamed"] = 0
        return state
