"""State layouts, flat states, the wire format and FL averaging.

These functions are the *measured* communication substrate: the FL channel
(:mod:`repro.fl.comm`) charges exactly ``len(dumps_state_dict(sd))`` bytes per
transfer, so the communication-cost tables are grounded in real payloads of
real models rather than analytic estimates.

Wire format (little-endian, versioned):

    magic ``b"RPSD"`` | u8 version | u32 n_entries
    per entry: u16 name_len | name utf-8 | u8 dtype_code | u8 ndim |
               u32 dims... | raw array bytes (C order)

Every state on the server path is a :class:`FlatState`: one contiguous
buffer per dtype plus the architecture's interned :class:`StateLayout`
(names, shapes, dtypes, offsets and each entry's wire header). The codec,
the admission gate, averaging, the robust policies, the payload attacks,
the server optimizers' steps and the stacked hand-off then work on a few
buffers per client instead of walking its keys, and two states have the
same architecture iff their layouts are the same object.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "StateLayout",
    "FlatState",
    "state_layout",
    "dumps_state_dict",
    "loads_state_dict",
    "state_dict_num_bytes",
    "average_states",
]

_MAGIC = b"RPSD"
_VERSION = 1
_PREFIX = struct.Struct("<BI")

_DTYPE_CODES = {
    np.dtype("float32"): 0,
    np.dtype("float64"): 1,
    np.dtype("int64"): 2,
    np.dtype("int32"): 3,
    np.dtype("float16"): 4,
    np.dtype("uint8"): 5,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class StateLayout:
    """The frozen, interned layout of one architecture's state dict.

    ``entries`` are the ordered ``(name, shape, dtype)`` triples. Entries of
    one dtype share a buffer (``buffer_dtypes`` in order of first
    appearance, ``buffer_sizes`` in elements, ``buffer_entries[b]`` the
    entry indices in key order) and ``slots[i]`` is entry ``i``'s
    ``(buffer, start, stop)`` within it. The wire framing is precomputed
    (:attr:`wire_nbytes` is what the meter charges): ``parts[i]`` is entry
    ``i``'s header bytes and its data's ``(buffer, byte start, byte
    stop)``, ``frames`` the ``(start, stop, bytes)`` of the prefix and of
    every header in a payload, and ``spans[b]`` the payload ``(start,
    stop)`` of buffer ``b``'s entries. A layout with a dtype the wire does
    not carry has ``wire_error`` set and no framing.

    :meth:`of` interns: equal entries give the same object, so layout
    equality is ``is`` and a layout is a cheap cache key.
    """

    __slots__ = (
        "entries", "names", "buffer_dtypes", "buffer_sizes", "buffer_entries", "slots",
        "float_buffers", "wire_nbytes", "wire_error", "parts", "frames", "spans",
    )
    _interned: "dict[tuple, StateLayout]" = {}

    @classmethod
    def of(cls, entries) -> "StateLayout":
        """The interned layout of ``(name, shape, dtype)`` triples."""
        key = tuple(entries)
        layout = cls._interned.get(key)
        if layout is None:  # normalise, so equal entries of other types meet
            key = tuple((str(n), tuple(int(d) for d in s), np.dtype(t)) for n, s, t in key)
            layout = cls._interned.get(key) or cls._interned.setdefault(key, cls(key))
        return layout

    def __init__(self, entries: tuple) -> None:
        self.entries = entries
        self.names = tuple(name for name, _, _ in entries)
        index: "dict[np.dtype, int]" = {}
        sizes: "list[int]" = []
        slots = []
        for _, shape, dtype in entries:
            b = index.setdefault(dtype, len(index))
            if b == len(sizes):
                sizes.append(0)
            slots.append((b, sizes[b], sizes[b] + math.prod(shape)))
            sizes[b] = slots[-1][2]
        self.buffer_dtypes = tuple(index)
        self.buffer_sizes = tuple(sizes)
        self.buffer_entries = tuple(
            tuple(i for i, slot in enumerate(slots) if slot[0] == b) for b in range(len(sizes))
        )
        self.slots = tuple(slots)
        self.float_buffers = tuple(b for b, t in enumerate(self.buffer_dtypes) if t.kind == "f")
        unsupported = [(n, t) for n, _, t in entries if t not in _DTYPE_CODES]
        self.wire_error = (
            f"unsupported dtype {unsupported[0][1]} for entry {unsupported[0][0]!r}"
            if unsupported else None
        )
        prefix = _MAGIC + _PREFIX.pack(_VERSION, len(entries))
        parts = []
        frames = [(0, len(prefix), prefix)]
        spans: "list[list[tuple[int, int]]]" = [[] for _ in sizes]
        off = len(prefix)
        for (name, shape, dtype), (b, start, stop) in zip(entries, slots):
            name_b = name.encode("utf-8")
            data_off = off + 2 + len(name_b) + 2 + 4 * len(shape)
            data_end = data_off + (stop - start) * dtype.itemsize
            if self.wire_error is None:
                header = struct.pack(
                    f"<H{len(name_b)}sBB{len(shape)}I",
                    len(name_b), name_b, _DTYPE_CODES[dtype], len(shape), *shape,
                )
                parts.append((header, b, start * dtype.itemsize, stop * dtype.itemsize))
                frames.append((off, data_off, header))
                spans[b].append((data_off, data_end))
            off = data_end
        self.wire_nbytes = off
        self.parts = tuple(parts)
        self.frames = tuple(frames)
        self.spans = tuple(map(tuple, spans))

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"StateLayout is frozen; cannot rebind {name!r}")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return StateLayout.of, (self.entries,)

    def framed(self, payload: bytes) -> bool:
        """Whether ``payload`` has exactly this layout's framing: its length,
        prefix and every entry header at this layout's offsets."""
        return (
            self.wire_error is None
            and len(payload) == self.wire_nbytes
            and all(payload[start:stop] == frame for start, stop, frame in self.frames)
        )


def state_layout(state: Mapping[str, np.ndarray]) -> StateLayout:
    """The interned layout of ``state`` (a :class:`FlatState`'s own)."""
    if isinstance(state, FlatState):
        return state.layout
    arrays = [(k, np.asarray(v)) for k, v in state.items()]
    return StateLayout.of((k, a.shape, a.dtype) for k, a in arrays)


class FlatState(Mapping):
    """A state dict held as one contiguous buffer per dtype plus its
    :class:`StateLayout`; each value is a view into its buffer.

    Build one with :meth:`of`. It pickles (and deep-copies) as the plain
    ``OrderedDict`` of its entries, so the spill files, checkpoints and
    worker payloads it reaches keep the format they always had.
    """

    __slots__ = ("layout", "buffers", "_views")

    def __init__(self, layout: StateLayout, buffers) -> None:
        self.layout = layout
        self.buffers = tuple(buffers)
        self._views: "dict[str, np.ndarray] | None" = None

    @classmethod
    def of(
        cls, state: Mapping[str, np.ndarray], layout: "StateLayout | None" = None
    ) -> "FlatState":
        """``state`` flattened into ``layout`` (default: its own layout).

        A :class:`FlatState` already in that layout is returned as is.
        Otherwise every entry the layout names is copied in, cast to the
        layout's dtype; a missing entry raises ``KeyError`` and a shape
        mismatch ``ValueError``.
        """
        if isinstance(state, FlatState) and (layout is None or state.layout is layout):
            return state
        if layout is None:
            layout = state_layout(state)
        values = [np.asarray(state[name]) for name in layout.names]
        for value, (name, shape, _) in zip(values, layout.entries):
            if value.shape != shape:
                raise ValueError(f"shape mismatch for {name!r}: {value.shape} vs {shape}")
        return cls(
            layout,
            [
                np.concatenate([values[i].reshape(-1) for i in entries], dtype=dtype, casting="unsafe")
                for dtype, entries in zip(layout.buffer_dtypes, layout.buffer_entries)
            ],
        )

    def _entries(self) -> "dict[str, np.ndarray]":
        if self._views is None:
            self._views = {
                name: self.buffers[b][start:stop].reshape(shape)
                for (name, shape, _), (b, start, stop) in zip(self.layout.entries, self.layout.slots)
            }
        return self._views

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.layout.names)

    def __len__(self) -> int:
        return len(self.layout.names)

    def values(self):
        return self._entries().values()

    def items(self):
        return self._entries().items()

    def __reduce__(self):
        return OrderedDict, (list(self.items()),)


def dumps_state_dict(state: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a state dict to the versioned binary wire format: the
    layout's cached headers, each followed by its entry's bytes — a segment
    of a :class:`FlatState` buffer, or a plain mapping's own array."""
    layout = state_layout(state)
    if layout.wire_error is not None:
        raise TypeError(layout.wire_error)
    if isinstance(state, FlatState):
        buffers = [memoryview(buf).cast("B") for buf in state.buffers]
        data = [buffers[b][start:stop] for _, b, start, stop in layout.parts]
    else:
        data = [np.asarray(v).tobytes() for v in state.values()]  # C order for any input
    out = [layout.frames[0][2]]
    for (header, _, _, _), segment in zip(layout.parts, data):
        out += (header, segment)
    return b"".join(out)


# the last layout decoded per payload length: a payload framed exactly like
# it decodes without re-parsing its headers
_WIRE_LAYOUTS: "dict[int, StateLayout]" = {}


def loads_state_dict(payload: bytes) -> FlatState:
    """Parse bytes produced by :func:`dumps_state_dict` into a writable
    :class:`FlatState` that owns its buffers.

    A payload that is not exactly one well-formed state dict (bad magic or
    version, a truncated header or array, an unknown dtype code, trailing
    bytes) raises ``ValueError`` naming the offset where parsing failed.
    """
    layout = _WIRE_LAYOUTS.get(len(payload))
    if layout is None or not layout.framed(payload):
        layout = _parse_layout(payload)
        _WIRE_LAYOUTS[len(payload)] = layout
    raw = memoryview(payload)
    return FlatState(
        layout,
        [
            np.frombuffer(bytearray().join([raw[start:stop] for start, stop in spans]), dtype)
            for dtype, spans in zip(layout.buffer_dtypes, layout.spans)
        ],
    )


def _parse_layout(payload: bytes) -> StateLayout:
    """Walk ``payload``'s headers; the layout they describe, or a typed
    ``ValueError`` at the first malformed byte."""
    if payload[:4] != _MAGIC:
        raise ValueError("not a repro state-dict payload (bad magic)")
    off = 4
    entries = []
    try:
        version, n = _PREFIX.unpack_from(payload, off)
        if version != _VERSION:
            raise ValueError(f"unsupported payload version {version}")
        off = 9
        for _ in range(n):
            (name_len,) = struct.unpack_from("<H", payload, off)
            off += 2
            name = payload[off : off + name_len].decode("utf-8")
            off += name_len
            code, ndim = struct.unpack_from("<BB", payload, off)
            dtype = _CODE_DTYPES.get(code)
            if dtype is None:
                raise ValueError(f"unknown dtype code {code} at offset {off}")
            off += 2
            shape = struct.unpack_from(f"<{ndim}I", payload, off)
            off += 4 * ndim
            nbytes = math.prod(shape) * dtype.itemsize
            if off + nbytes > len(payload):
                raise ValueError(f"truncated state-dict payload: {name!r} data at offset {off}")
            off += nbytes
            entries.append((name, shape, dtype))
    except struct.error:
        raise ValueError(f"truncated state-dict payload: header at offset {off}") from None
    if off != len(payload):
        raise ValueError(f"trailing bytes after the state dict at offset {off}")
    return StateLayout.of(entries)


def state_dict_num_bytes(state: Mapping[str, np.ndarray]) -> int:
    """Exact wire size of a state dict (what the comm meter charges)."""
    return state_layout(state).wire_nbytes


def average_states(
    states: "list[Mapping[str, np.ndarray]]", weights: "list[float] | None" = None
) -> FlatState:
    """Weighted average of state dicts (the FedAvg aggregation rule).

    Weights default to uniform and are normalized to sum to 1. The states
    stream through one float64 accumulator per dtype buffer of the first
    state's layout, in list order: ``acc += (w / total) * buffer``. A state
    in another layout (a plain dict, or another key order) is flattened
    into the first one's on entry, one state at a time, its entries cast to
    the first state's dtypes. The result is a :class:`FlatState` in the
    first state's layout: each accumulator cast back to its buffer's dtype,
    so an integer counter truncates.

    The product ``(w / total) * buffer`` takes the buffer's dtype: under
    NumPy 2 (NEP 50) the Python-float weight is weak, so a float32 entry's
    product is rounded to float32 *before* it reaches the float64
    accumulator (and a float16 entry's to float16; integer entries promote
    to float64). Only the sum is carried in float64. Every run fingerprint
    depends on that rounding.
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
    layout = state_layout(states[0])
    acc = [np.zeros(n, dtype=np.float64) for n in layout.buffer_sizes]
    for state, w in zip(states, weights):
        for a, buf in zip(acc, FlatState.of(state, layout).buffers):
            a += (w / total) * buf
    return FlatState(layout, [a.astype(dtype) for a, dtype in zip(acc, layout.buffer_dtypes)])
