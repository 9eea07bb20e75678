"""Communication metering.

Every state dict that crosses the client↔server boundary goes through a
:class:`Channel`, which serializes it with the real wire format
(:mod:`repro.nn.serialization`), charges the exact byte count to a
:class:`CommMeter`, and hands the receiver a deserialized copy. The
paper's communication-cost tables

    total = rounds × round-cost-per-client × sampled clients

fall directly out of the meter's ledger — nothing is analytically estimated.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.nn.serialization import dumps_state_dict, loads_state_dict

__all__ = ["CommMeter", "Channel"]


@dataclass
class CommMeter:
    """Ledger of bytes moved between server and clients.

    ``uplink[c]`` / ``downlink[c]`` accumulate per-client totals;
    per-round totals are tracked via :meth:`begin_round`.
    """

    uplink: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    downlink: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    round_bytes: list[int] = field(default_factory=list)
    _current_round: int = -1

    def begin_round(self, round_idx: int) -> None:
        """Open accounting for a new communication round.

        Rounds normally open sequentially, but a run resumed from a
        checkpoint (or a runtime retrying a round) may start at round *r*
        on a fresh meter: gaps are backfilled with zero-byte rounds so the
        per-round ledger stays index-aligned. Reopening an already-closed
        round would corrupt the ledger and raises.
        """
        if round_idx < len(self.round_bytes):
            raise ValueError(
                f"round {round_idx} already opened; next expected round is "
                f"{len(self.round_bytes)}"
            )
        while len(self.round_bytes) < round_idx:
            self.round_bytes.append(0)  # rounds that ran before the resume
        self.round_bytes.append(0)
        self._current_round = round_idx

    def state(self) -> dict:
        """The ledger as plain data (what a run checkpoint stores)."""
        return {
            "uplink": dict(self.uplink),
            "downlink": dict(self.downlink),
            "round_bytes": list(self.round_bytes),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot; the last recorded round stays
        open, so :meth:`begin_round` continues with the next one."""
        self.uplink = defaultdict(int, {int(k): v for k, v in state["uplink"].items()})
        self.downlink = defaultdict(int, {int(k): v for k, v in state["downlink"].items()})
        self.round_bytes = list(state["round_bytes"])
        self._current_round = len(self.round_bytes) - 1

    def charge_up(self, client_id: int, nbytes: int) -> None:
        self._charge(self.uplink, client_id, nbytes)

    def charge_down(self, client_id: int, nbytes: int) -> None:
        self._charge(self.downlink, client_id, nbytes)

    def _charge(self, ledger: dict[int, int], client_id: int, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot charge negative bytes")
        ledger[client_id] += nbytes
        if self._current_round >= 0:
            self.round_bytes[self._current_round] += nbytes

    @property
    def total_up(self) -> int:
        return sum(self.uplink.values())

    @property
    def total_down(self) -> int:
        return sum(self.downlink.values())

    @property
    def total(self) -> int:
        return self.total_up + self.total_down

    def total_gb(self) -> float:
        """Total traffic in GB (10⁹ bytes, the paper's unit)."""
        return self.total / 1e9

    def cumulative_by_round(self) -> np.ndarray:
        """Cumulative bytes after each completed round."""
        return np.cumsum(np.asarray(self.round_bytes, dtype=np.int64))


class Channel:
    """Serializing transport between server and one logical client.

    ``payload_multiplier`` models protocols that ship auxiliary tensors the
    same size as the state (e.g. SCAFFOLD control variates); algorithms that
    transfer genuinely distinct payloads should instead send each one.

    ``codec`` optionally transcodes payloads on the wire (fp16 / int-k
    quantization, :mod:`repro.fl.compression`); the meter charges the
    *compressed* size and the receiver sees the decompressed state.
    """

    def __init__(self, meter: CommMeter, codec=None) -> None:
        self.meter = meter
        self.codec = codec

    def _encode(self, state: Mapping[str, np.ndarray]) -> bytes:
        if self.codec is not None:
            state = self.codec.compress(state)
        return dumps_state_dict(state)

    def _decode(self, payload: bytes) -> "OrderedDict[str, np.ndarray]":
        state = loads_state_dict(payload)
        if self.codec is not None:
            state = self.codec.decompress(state)
        return state

    @staticmethod
    def _check_multiplier(payload_multiplier: float) -> None:
        # Retransmitting runtimes scale charges by attempt count; a negative
        # multiplier would silently *credit* bytes back to the ledger.
        if payload_multiplier < 0:
            raise ValueError(
                f"payload_multiplier must be non-negative; got {payload_multiplier}"
            )

    def download(
        self,
        client_id: int,
        state: Mapping[str, np.ndarray],
        payload_multiplier: float = 1.0,
    ) -> "OrderedDict[str, np.ndarray]":
        """Server → client transfer; returns the client's deserialized copy."""
        self._check_multiplier(payload_multiplier)
        payload = self._encode(state)
        self.meter.charge_down(client_id, int(len(payload) * payload_multiplier))
        return self._decode(payload)

    def upload(
        self,
        client_id: int,
        state: Mapping[str, np.ndarray],
        payload_multiplier: float = 1.0,
    ) -> "OrderedDict[str, np.ndarray]":
        """Client → server transfer; returns the server's deserialized copy."""
        self._check_multiplier(payload_multiplier)
        payload = self._encode(state)
        self.meter.charge_up(client_id, int(len(payload) * payload_multiplier))
        return self._decode(payload)
