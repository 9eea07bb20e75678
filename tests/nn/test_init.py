"""Weight initializers."""

import math

import numpy as np
import pytest

from repro.nn import init


class TestFan:
    def test_dense(self):
        assert init.fan_in_out((10, 4)) == (4, 10)

    def test_conv(self):
        # (oc=8, ic=3, kh=3, kw=3): fan_in = 27, fan_out = 72
        assert init.fan_in_out((8, 3, 3, 3)) == (27, 72)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            init.fan_in_out((5,))


class TestDistributions:
    def test_kaiming_normal_std(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_normal((256, 128), rng)
        expected = math.sqrt(2.0) / math.sqrt(128)
        assert abs(w.std() - expected) / expected < 0.05
        assert w.dtype == np.float32

    def test_kaiming_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_uniform((64, 64), rng)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 64)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.8 * bound  # actually fills the range

    def test_zeros_ones(self):
        assert init.zeros((3, 3)).sum() == 0
        assert init.ones((3, 3)).sum() == 9

    def test_deterministic_given_rng(self):
        a = init.kaiming_normal((8, 8), np.random.default_rng(5))
        b = init.kaiming_normal((8, 8), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_conv_shape_variance_scales_with_fan_in(self):
        rng = np.random.default_rng(0)
        narrow = init.kaiming_normal((64, 4, 3, 3), rng).std()
        wide = init.kaiming_normal((64, 64, 3, 3), rng).std()
        assert narrow > 2 * wide  # fan_in 36 vs 576 → 4x std ratio
