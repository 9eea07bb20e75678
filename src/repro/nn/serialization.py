"""State-dict serialization and parameter-vector utilities.

These functions are the *measured* communication substrate: the FL channel
(:mod:`repro.fl.comm`) charges exactly ``len(dumps_state_dict(sd))`` bytes per
transfer, so the communication-cost tables are grounded in real payloads of
real models rather than analytic estimates.

Wire format (little-endian, versioned):

    magic ``b"RPSD"`` | u8 version | u32 n_entries
    per entry: u16 name_len | name utf-8 | u8 dtype_code | u8 ndim |
               u32 dims... | raw array bytes (C order)
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.module import Module

__all__ = [
    "dumps_state_dict",
    "loads_state_dict",
    "state_dict_num_bytes",
    "state_dict_num_params",
    "state_dict_signature",
    "parameters_to_vector",
    "vector_to_parameters",
    "zeros_like_state",
    "add_state",
    "scale_state",
    "average_states",
    "subtract_states",
]

_MAGIC = b"RPSD"
_VERSION = 1

_DTYPE_CODES = {
    np.dtype("float32"): 0,
    np.dtype("float64"): 1,
    np.dtype("int64"): 2,
    np.dtype("int32"): 3,
    np.dtype("float16"): 4,
    np.dtype("uint8"): 5,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def dumps_state_dict(state: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a state dict to the versioned binary wire format."""
    parts: list[bytes] = [_MAGIC, struct.pack("<BI", _VERSION, len(state))]
    for name, arr in state.items():
        # asarray (not ascontiguousarray) so 0-d entries stay 0-d;
        # tobytes() below emits C order for any input layout.
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise TypeError(f"unsupported dtype {arr.dtype} for entry {name!r}")
        name_b = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def loads_state_dict(payload: bytes) -> "OrderedDict[str, np.ndarray]":
    """Parse bytes produced by :func:`dumps_state_dict`."""
    if payload[:4] != _MAGIC:
        raise ValueError("not a repro state-dict payload (bad magic)")
    version, n = struct.unpack_from("<BI", payload, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported payload version {version}")
    off = 9
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    for _ in range(n):
        (name_len,) = struct.unpack_from("<H", payload, off)
        off += 2
        name = payload[off : off + name_len].decode("utf-8")
        off += name_len
        code, ndim = struct.unpack_from("<BB", payload, off)
        off += 2
        shape = struct.unpack_from(f"<{ndim}I", payload, off)
        off += 4 * ndim
        dtype = _CODE_DTYPES[code]
        count = math.prod(shape)
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=off).reshape(shape)
        off += arr.nbytes
        out[name] = arr.copy()  # decouple from the payload buffer
    return out


def state_dict_num_bytes(state: Mapping[str, np.ndarray]) -> int:
    """Exact wire size of a state dict (what the comm meter charges)."""
    total = len(_MAGIC) + 5
    for name, arr in state.items():
        total += 2 + len(name.encode("utf-8")) + 2 + 4 * np.ndim(arr) + np.asarray(arr).nbytes
    return total


def state_dict_num_params(state: Mapping[str, np.ndarray]) -> int:
    """Total scalar count across all entries."""
    return int(sum(np.asarray(a).size for a in state.values()))


def state_dict_signature(state: Mapping[str, np.ndarray]) -> tuple:
    """Architecture identity: ordered ``(name, shape, dtype)`` per entry.

    Two models share a signature iff their state dicts are layout-identical
    — the right cache key for anything derived from architecture alone
    (per-step FLOPs, wire size), where ``(class name, num_bytes)`` collides
    for same-size variants of one family.
    """
    return tuple(
        (name, tuple(np.shape(arr)), str(np.asarray(arr).dtype))
        for name, arr in state.items()
    )


def parameters_to_vector(module: "Module") -> np.ndarray:
    """Flatten all trainable parameters into one float64 vector (for
    FedNova/SCAFFOLD drift arithmetic, done in high precision)."""
    return np.concatenate([p.data.reshape(-1).astype(np.float64) for p in module.parameters()])


def vector_to_parameters(vec: np.ndarray, module: "Module") -> None:
    """Write a flat vector back into a module's parameters, in place."""
    off = 0
    for p in module.parameters():
        n = p.data.size
        p.data[...] = vec[off : off + n].reshape(p.data.shape).astype(p.data.dtype)
        off += n
    if off != vec.size:
        raise ValueError(f"vector has {vec.size} entries; module needs {off}")


# ---------------------------------------------------------------------- #
# state-dict arithmetic (FL aggregation primitives)
# ---------------------------------------------------------------------- #


def zeros_like_state(state: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict((k, np.zeros_like(v, dtype=np.float64)) for k, v in state.items())


def add_state(acc: Mapping[str, np.ndarray], state: Mapping[str, np.ndarray], weight: float = 1.0):
    """``acc += weight * state`` in place; returns ``acc``."""
    for k in acc:
        acc[k] += weight * state[k]
    return acc


def scale_state(state: Mapping[str, np.ndarray], factor: float) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict((k, v * factor) for k, v in state.items())


def average_states(
    states: list[Mapping[str, np.ndarray]], weights: list[float] | None = None
) -> "OrderedDict[str, np.ndarray]":
    """Weighted average of state dicts (the FedAvg aggregation rule).

    Weights default to uniform and are normalized to sum to 1.
    """
    if not states:
        raise ValueError("cannot average zero states")
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError("weights/states length mismatch")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    acc = zeros_like_state(states[0])
    for sd, w in zip(states, weights):
        add_state(acc, sd, w / total)
    ref = states[0]
    return OrderedDict((k, acc[k].astype(np.asarray(ref[k]).dtype)) for k in acc)


def subtract_states(
    a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]
) -> "OrderedDict[str, np.ndarray]":
    """Elementwise ``a - b`` (model deltas for FedNova normalization)."""
    return OrderedDict((k, np.asarray(a[k], dtype=np.float64) - np.asarray(b[k], dtype=np.float64)) for k in a)
