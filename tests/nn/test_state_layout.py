"""Flat states against the per-key implementations they replaced.

The oracles below are the per-key wire codec, state arithmetic and
admission gate that walked every state dict key by key before states became
:class:`FlatState` buffers under an interned :class:`StateLayout`. The
properties run them beside the flat code on random layouts that mix wire
dtypes, 0-d and empty entries and non-contiguous inputs, and require equal
bytes, equal bits and equal rejection reasons.
"""

from __future__ import annotations

import math
import pickle
import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fl.comm import Channel, CommMeter
from repro.fl.robust import validate_update
from repro.nn.serialization import (
    FlatState,
    StateLayout,
    average_states,
    dumps_state_dict,
    loads_state_dict,
    state_dict_num_bytes,
    state_layout,
)

# ---------------------------------------------------------------------- #
# per-key oracles
# ---------------------------------------------------------------------- #

_MAGIC = b"RPSD"
_CODES = {
    np.dtype("float32"): 0,
    np.dtype("float64"): 1,
    np.dtype("int64"): 2,
    np.dtype("int32"): 3,
    np.dtype("float16"): 4,
    np.dtype("uint8"): 5,
}
_DTYPES_BY_CODE = {v: k for k, v in _CODES.items()}


def oracle_dumps(state):
    parts = [_MAGIC, struct.pack("<BI", 1, len(state))]
    for name, arr in state.items():
        arr = np.asarray(arr)
        name_b = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<BB", _CODES[arr.dtype], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def oracle_loads(payload):
    off = 9
    out = OrderedDict()
    for _ in range(struct.unpack_from("<BI", payload, 4)[1]):
        (name_len,) = struct.unpack_from("<H", payload, off)
        off += 2
        name = payload[off : off + name_len].decode("utf-8")
        off += name_len
        code, ndim = struct.unpack_from("<BB", payload, off)
        off += 2
        shape = struct.unpack_from(f"<{ndim}I", payload, off)
        off += 4 * ndim
        arr = np.frombuffer(payload, _DTYPES_BY_CODE[code], math.prod(shape), off).reshape(shape)
        off += arr.nbytes
        out[name] = arr.copy()
    return out


def oracle_num_bytes(state):
    total = len(_MAGIC) + 5
    for name, arr in state.items():
        total += 2 + len(name.encode("utf-8")) + 2 + 4 * np.ndim(arr) + np.asarray(arr).nbytes
    return total


def oracle_average(states, weights=None):
    if weights is None:
        weights = [1.0] * len(states)
    total = float(sum(weights))
    acc = OrderedDict((k, np.zeros_like(v, dtype=np.float64)) for k, v in states[0].items())
    for sd, w in zip(states, weights):
        for k in acc:
            acc[k] += (w / total) * sd[k]
    return OrderedDict((k, acc[k].astype(np.asarray(states[0][k]).dtype)) for k in acc)


def _oracle_delta_norm(state, reference):
    total = 0.0
    for k in [k for k in state if np.asarray(state[k]).dtype.kind == "f"]:
        x = np.asarray(state[k], dtype=np.float64)
        if reference is not None:
            x = x - np.asarray(reference[k], dtype=np.float64)
        total += float(np.dot(x.ravel(), x.ravel()))
    return float(np.sqrt(total))


def oracle_validate(payloads, *, reference=None, norm_ceiling=None):
    for name, state in payloads.items():
        for key, arr in state.items():
            a = np.asarray(arr)
            if a.dtype == object:
                return f"{name}[{key}]: object-dtype tensor"
            if a.dtype.kind == "f" and not np.isfinite(a).all():
                return f"{name}[{key}]: non-finite values"
    state = payloads.get("state")
    if state is not None and reference is not None:
        if set(state.keys()) != set(reference.keys()):
            missing = sorted(set(reference) - set(state))
            extra = sorted(set(state) - set(reference))
            return f"state: key mismatch (missing={missing}, unexpected={extra})"
        for key, ref in reference.items():
            a, r = np.asarray(state[key]), np.asarray(ref)
            if a.shape != r.shape:
                return f"state[{key}]: shape {a.shape} != expected {r.shape}"
            if a.dtype != r.dtype and not (a.dtype.kind == r.dtype.kind == "f"):
                return f"state[{key}]: dtype {a.dtype} incompatible with {r.dtype}"
        if norm_ceiling is not None:
            norm = _oracle_delta_norm(state, reference)
            if norm > norm_ceiling:
                return f"state: update norm {norm:.4g} exceeds ceiling {norm_ceiling:.4g}"
    return None


# ---------------------------------------------------------------------- #
# random layouts
# ---------------------------------------------------------------------- #

DTYPES = (np.float32, np.float64, np.float16, np.int64, np.uint8)

entries = st.lists(
    st.tuples(
        st.text(alphabet="abcxyz._0", min_size=1, max_size=6),
        st.sampled_from(DTYPES),
        st.lists(st.integers(0, 4), min_size=0, max_size=3),  # [] is 0-d, a 0 is empty
        st.booleans(),  # build the array transposed (non-contiguous)
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda e: e[0],
)


def make_state(spec, seed):
    rng = np.random.default_rng(seed)
    out = OrderedDict()
    for name, dtype, shape, transposed in spec:
        dims = tuple(shape[::-1]) if transposed else tuple(shape)
        if np.dtype(dtype).kind == "f":
            arr = (rng.standard_normal(dims) * 3).astype(dtype)
        elif dtype is np.uint8:
            arr = rng.integers(0, 256, dims).astype(dtype)
        else:
            arr = rng.integers(-1000, 1000, dims).astype(dtype)
        out[name] = arr.T if transposed else arr
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_states_equal(got, want):
    assert list(got) == list(want)
    for k in want:
        assert same_bits(got[k], want[k]), k


# ---------------------------------------------------------------------- #
# properties
# ---------------------------------------------------------------------- #


class TestWireAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(entries, st.integers(0, 2**31))
    def test_bytes_size_and_round_trip(self, spec, seed):
        state = make_state(spec, seed)
        wire = dumps_state_dict(state)
        assert wire == oracle_dumps(state)
        assert state_dict_num_bytes(state) == oracle_num_bytes(state) == len(wire)
        out = loads_state_dict(wire)
        assert isinstance(out, FlatState)
        assert out.layout is state_layout(state)
        assert_states_equal(out, state)
        assert_states_equal(out, oracle_loads(wire))
        # the flat form serializes to the same bytes and charges the same size
        assert dumps_state_dict(out) == wire
        assert state_dict_num_bytes(out) == len(wire)
        assert loads_state_dict(wire).layout is out.layout  # the cached framing path

    @settings(max_examples=60, deadline=None)
    @given(entries, st.integers(0, 2**31), st.data())
    def test_same_length_payload_with_other_headers_is_reparsed(self, spec, seed, data):
        """The decode cache is keyed by payload length; a payload of that
        length whose headers differ must not decode in the cached layout."""
        state = make_state(spec, seed)
        wire = dumps_state_dict(state)
        loads_state_dict(wire)  # cache this length's layout
        i = data.draw(st.integers(0, len(state) - 1))
        # entry i's header starts after the prefix and the earlier entries
        off = 9 + sum(
            2 + len(k) + 2 + 4 * np.ndim(v) + np.asarray(v).nbytes
            for k, v in list(state.items())[:i]
        )
        renamed = bytearray(wire)
        renamed[off + 2] = ord("Q")  # first byte of entry i's name
        assert_states_equal(loads_state_dict(bytes(renamed)), oracle_loads(bytes(renamed)))
        bad = bytearray(wire)
        code_at = off + 2 + len(list(state)[i])
        bad[code_at] = 9
        with pytest.raises(ValueError, match=f"dtype code 9 at offset {code_at}"):
            loads_state_dict(bytes(bad))


class TestAverageAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        entries,
        st.integers(0, 2**31),
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=7),
        st.booleans(),
    )
    def test_bitwise_for_one_to_seven_states(self, spec, seed, weights, flat_inputs):
        states = [make_state(spec, seed + i) for i in range(len(weights))]
        if flat_inputs:
            states = [loads_state_dict(dumps_state_dict(s)) for s in states]
        assert_states_equal(average_states(states, weights), oracle_average(states, weights))
        assert_states_equal(average_states(states), oracle_average(states))

    def test_int64_counter_truncates(self):
        a = OrderedDict(w=np.array([1.0], np.float32), n=np.array([1], np.int64))
        b = OrderedDict(w=np.array([2.0], np.float32), n=np.array([2], np.int64))
        avg = average_states([a, FlatState.of(b)])
        assert avg["n"].dtype == np.int64 and avg["n"][0] == 1  # 1.5 truncated
        assert_states_equal(avg, oracle_average([a, b]))

    def test_other_key_order_is_flattened_into_the_first_layout(self):
        a = OrderedDict(w=np.array([1.0, 2.0], np.float32), b=np.array([3.0], np.float32))
        b = OrderedDict(b=np.array([5.0], np.float32), w=np.array([4.0, 0.5], np.float32))
        assert_states_equal(average_states([a, b], [1.0, 3.0]), oracle_average([a, b], [1.0, 3.0]))


class TestValidateAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        entries,
        st.integers(0, 2**31),
        st.sampled_from(["clean", "nan", "inf", "missing", "extra", "shape", "dtype", "width"]),
        st.one_of(st.none(), st.floats(0.0, 400.0)),
        st.booleans(),
        st.data(),
    )
    def test_same_reason(self, spec, seed, case, ceiling, flat_inputs, data):
        reference = make_state(spec, seed)
        state = make_state(spec, seed + 1)
        first = next(iter(state))
        floats = [k for k, v in state.items() if v.dtype.kind == "f" and v.size]
        target = data.draw(st.sampled_from(floats)) if floats else None
        if case in ("nan", "inf") and target is not None:
            state[target] = state[target].copy()
            state[target].flat[-1] = np.nan if case == "nan" else -np.inf
        elif case == "missing" and len(state) > 1:
            del state[first]
        elif case == "extra":
            state["zz_extra"] = np.zeros(2, np.float32)
        elif case == "shape":
            state[first] = np.asarray(state[first]).reshape(-1)[None]
        elif case == "dtype":
            v = np.asarray(state[first])
            state[first] = v.astype(np.float32 if v.dtype.kind != "f" else np.int64)
        elif case == "width" and target is not None:
            v = state[target]
            state[target] = v.astype(np.float64 if v.dtype != np.float64 else np.float32)
        payloads = {"state": state, "delta": make_state(spec, seed + 2)}
        if flat_inputs:
            payloads = {k: FlatState.of(v) for k, v in payloads.items()}
            reference = FlatState.of(reference)
        want = oracle_validate(payloads, reference=reference, norm_ceiling=ceiling)
        got = validate_update(payloads, reference=reference, norm_ceiling=ceiling)
        assert got == want

    def test_object_dtype_reason(self):
        payloads = {"state": {"w": np.zeros(2, np.float32), "o": np.array([None], dtype=object)}}
        assert validate_update(payloads) == oracle_validate(payloads) == "state[o]: object-dtype tensor"


class TestFlatStateObject:
    def test_layouts_are_interned_and_frozen(self):
        a = make_state([("w", np.float32, [2, 3], False), ("n", np.int64, [], False)], 0)
        b = make_state([("w", np.float32, [2, 3], True), ("n", np.int64, [], False)], 1)
        layout = state_layout(a)
        assert state_layout(b) is layout
        assert StateLayout.of([("w", (2, 3), "float32"), ("n", (), np.int64)]) is layout
        assert pickle.loads(pickle.dumps(layout)) is layout
        with pytest.raises(AttributeError):
            layout.names = ("x",)

    def test_pickles_as_the_plain_mapping(self):
        state = make_state([("w", np.float32, [3, 2], True), ("n", np.int64, [], False)], 0)
        flat = FlatState.of(state)
        back = pickle.loads(pickle.dumps(flat))
        assert type(back) is OrderedDict
        assert_states_equal(back, state)

    def test_broadcast_decode_is_read_only(self):
        state = make_state([("w", np.float32, [2, 2], False), ("b", np.float32, [2], False)], 0)
        channel = Channel(CommMeter())
        with channel.broadcast():
            shared = channel.download(0, state)
            assert channel.download(1, state) is shared
        assert isinstance(shared, FlatState)
        with pytest.raises(ValueError):
            shared["w"][0, 0] = 1.0
        with pytest.raises(ValueError):
            shared.buffers[0][0] = 1.0
        fresh = channel.download(2, state)  # outside the block: a writable copy
        fresh["w"][0, 0] = 1.0
        assert fresh.buffers[0][0] == 1.0
