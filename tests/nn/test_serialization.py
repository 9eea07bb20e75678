"""Wire format, averaging and parameter-vector tests (incl. property-based)."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Linear, Sequential, ReLU
from repro.nn.models import resnet20
from repro.nn.serialization import (
    average_states,
    dumps_state_dict,
    loads_state_dict,
    state_dict_num_bytes,
)


def small_model(seed=0):
    return Sequential(Linear(4, 8, rng=np.random.default_rng(seed)), ReLU(), Linear(8, 2, rng=np.random.default_rng(seed + 1)))


class TestWireFormat:
    def test_round_trip_exact(self):
        sd = resnet20(seed=0, width_mult=0.125).state_dict()
        out = loads_state_dict(dumps_state_dict(sd))
        assert list(out) == list(sd)
        for k in sd:
            np.testing.assert_array_equal(out[k], sd[k])
            assert out[k].dtype == sd[k].dtype

    def test_size_formula_matches_payload(self):
        sd = small_model().state_dict()
        assert state_dict_num_bytes(sd) == len(dumps_state_dict(sd))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            loads_state_dict(b"NOPE" + b"\x00" * 16)

    def test_trailing_bytes_rejected(self):
        payload = dumps_state_dict(small_model().state_dict())
        with pytest.raises(ValueError, match=f"trailing bytes .* offset {len(payload)}"):
            loads_state_dict(payload + b"\x00junk")

    def test_unknown_dtype_code_rejected(self):
        payload = bytearray(dumps_state_dict(OrderedDict(w=np.zeros(2, dtype=np.float32))))
        code_at = 9 + 2 + 1  # header, name length, the one-byte name "w"
        assert payload[code_at] == 0  # float32
        payload[code_at] = 9
        with pytest.raises(ValueError, match=f"dtype code 9 at offset {code_at}"):
            loads_state_dict(bytes(payload))

    @pytest.mark.parametrize("cut", [6, 10, 13, 16, 30])
    def test_truncated_payload_rejected(self, cut):
        """Cut inside the entry count, the name length, the dtype/ndim pair,
        the shape and the array data: each fails typed, naming an offset."""
        payload = dumps_state_dict(OrderedDict(w=np.zeros((2, 3), dtype=np.float32)))
        with pytest.raises(ValueError, match="truncated .* offset \\d+"):
            loads_state_dict(payload[:cut])

    def test_unsupported_dtype(self):
        with pytest.raises(TypeError):
            dumps_state_dict({"x": np.zeros(2, dtype=np.complex64)})

    def test_scalar_entry(self):
        sd = OrderedDict(x=np.float32(3.5).reshape(()))
        out = loads_state_dict(dumps_state_dict(sd))
        assert float(out["x"]) == 3.5

    def test_int_buffers_supported(self):
        sd = OrderedDict(steps=np.array([7], dtype=np.int64))
        out = loads_state_dict(dumps_state_dict(sd))
        assert out["steps"][0] == 7

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(min_size=1, max_size=12).filter(lambda s: s.strip()),
                st.lists(st.integers(1, 5), min_size=0, max_size=3),
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda t: t[0],
        ),
        st.randoms(),
    )
    def test_property_round_trip(self, entries, rnd):
        """Arbitrary names/shapes survive serialization byte-exactly."""
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        sd = OrderedDict(
            (name, rng.standard_normal(shape).astype(np.float32)) for name, shape in entries
        )
        out = loads_state_dict(dumps_state_dict(sd))
        assert list(out) == list(sd)
        for k in sd:
            np.testing.assert_array_equal(out[k], sd[k])


class TestStateArithmetic:
    def test_average_uniform(self):
        a = OrderedDict(w=np.array([1.0, 3.0], dtype=np.float32))
        b = OrderedDict(w=np.array([3.0, 5.0], dtype=np.float32))
        avg = average_states([a, b])
        np.testing.assert_allclose(avg["w"], [2.0, 4.0])
        assert avg["w"].dtype == np.float32

    def test_average_weighted(self):
        a = OrderedDict(w=np.array([0.0], dtype=np.float32))
        b = OrderedDict(w=np.array([10.0], dtype=np.float32))
        avg = average_states([a, b], weights=[1.0, 3.0])
        np.testing.assert_allclose(avg["w"], [7.5])

    def test_average_validates(self):
        with pytest.raises(ValueError):
            average_states([])
        a = OrderedDict(w=np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError):
            average_states([a], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            average_states([a, a], weights=[0.0, 0.0])

    def test_float32_products_round_before_the_float64_sum(self):
        """NEP 50 pin: ``(w / total) * state[k]`` is a float32 product for
        a float32 entry, rounded before the float64 accumulator sees it.

        By hand, weights (1, 2) and total 3:
          (1/3) * 0x1.b84bb8p+0 -> float32 0x1.2587d0p-1
          (2/3) * 0x1.de7f86p+0 -> float32 0x1.3effb0p+0
          float64 sum 0x1.d1c398p+0 -> float32 0x1.d1c398p+0 (0x3fe8e1cc)
        Float64 products would sum to 0x1.d1c396aaaaaaap+0 and round to
        0x1.d1c396p+0 (0x3fe8e1cb), one ulp lower.
        """
        x = np.float32(float.fromhex("0x1.b84bb8p+0"))
        y = np.float32(float.fromhex("0x1.de7f86p+0"))
        a = OrderedDict(w=np.array([x], dtype=np.float32))
        b = OrderedDict(w=np.array([y], dtype=np.float32))
        avg = average_states([a, b], weights=[1.0, 2.0])["w"]
        assert avg.dtype == np.float32
        assert avg.view(np.uint32)[0] == 0x3FE8E1CC
        wide = np.float32((1.0 / 3.0) * float(x) + (2.0 / 3.0) * float(y))
        assert wide.view(np.uint32) == 0x3FE8E1CB  # the rule this test tells apart

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 1000))
    def test_property_average_of_identical_is_identity(self, n, seed):
        rng = np.random.default_rng(seed)
        sd = OrderedDict(w=rng.standard_normal(4).astype(np.float32))
        avg = average_states([sd] * n)
        np.testing.assert_allclose(avg["w"], sd["w"], atol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_property_average_bounded_by_members(self, seed):
        rng = np.random.default_rng(seed)
        states = [OrderedDict(w=rng.standard_normal(5).astype(np.float32)) for _ in range(4)]
        avg = average_states(states)["w"]
        lo = np.min([s["w"] for s in states], axis=0)
        hi = np.max([s["w"] for s in states], axis=0)
        assert (avg >= lo - 1e-6).all() and (avg <= hi + 1e-6).all()
