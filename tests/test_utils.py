"""Utility-layer tests: RNG streams, registry, logging."""

import logging

import numpy as np
import pytest

from repro.utils import Registry, get_logger, new_rng
from repro.utils.rng import derive_seed


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = new_rng(42, "data", 0).standard_normal(4)
        b = new_rng(42, "data", 0).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        a = new_rng(42, "data", 0).standard_normal(4)
        b = new_rng(42, "train", 0).standard_normal(4)
        assert not np.allclose(a, b)

    def test_indices_independent(self):
        a = new_rng(42, "data", 0).standard_normal(4)
        b = new_rng(42, "data", 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_unknown_stream_falls_back(self):
        # unknown stream names map to the generic stream deterministically
        assert derive_seed(1, "nonsense", 0) == derive_seed(1, "generic", 0)

    def test_none_seed_nondeterministic_allowed(self):
        r = new_rng(None)
        assert isinstance(r, np.random.Generator)


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")

        @reg.register("Foo-Bar", "fb")
        def make():
            return 1

        assert reg.get("foo-bar") is make
        assert reg.get("FB") is make
        assert reg.get("foo_bar") is make  # underscore normalization

    def test_duplicate_rejected(self):
        reg = Registry("thing")
        reg.add("a", 1)
        with pytest.raises(KeyError):
            reg.add("A", 2)

    def test_unknown_lists_known(self):
        reg = Registry("thing")
        reg.add("alpha", 1)
        with pytest.raises(KeyError, match="alpha"):
            reg.get("beta")

    def test_contains_iter_names(self):
        reg = Registry("thing")
        reg.add("b", 2)
        reg.add("a", 1)
        assert "a" in reg and "z" not in reg
        assert list(reg) == ["a", "b"]
        assert reg.names() == ["a", "b"]


class TestLogging:
    def test_namespaced(self):
        log = get_logger("fl")
        assert log.name == "repro.fl"
        log2 = get_logger("repro.core")
        assert log2.name == "repro.core"

    def test_single_handler_on_root(self):
        get_logger("a")
        get_logger("b")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1
