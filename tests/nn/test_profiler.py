"""FLOP accounting."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.models import CNN2Layer, MLP, resnet20, resnet32, vgg11
from repro.nn.profiler import FlopCounter, count_flops, flops_forward, flops_training_step
from repro.nn.tensor import Tensor


class TestCounterMechanics:
    def test_inactive_by_default(self):
        x = Tensor(np.zeros((2, 8), dtype=np.float32))
        w = Tensor(np.zeros((4, 8), dtype=np.float32))
        F.linear(x, w)  # must not raise or count anywhere

    def test_nested_counters_restore(self):
        with count_flops() as outer:
            x = Tensor(np.zeros((1, 8), dtype=np.float32))
            w = Tensor(np.zeros((4, 8), dtype=np.float32))
            F.linear(x, w)
            with count_flops() as inner:
                F.linear(x, w)
            F.linear(x, w)
        assert inner.total == 2 * 8 * 4
        assert outer.total == 2 * (2 * 8 * 4)  # inner block not double-counted

    def test_by_kind(self):
        with count_flops() as fc:
            x = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
            w = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
            F.conv2d(x, w, padding=1)
        assert set(fc.by_kind) == {"conv2d"}


class TestKnownCounts:
    def test_linear_exact(self):
        with count_flops() as fc:
            x = Tensor(np.zeros((5, 10), dtype=np.float32))
            w = Tensor(np.zeros((7, 10), dtype=np.float32))
            F.linear(x, w)
        assert fc.total == 2 * 5 * 10 * 7

    def test_linear_counts_every_leading_row(self):
        # A stack of K clients costs K times one client's matmul.
        k = 3

        def flops(lead):
            with count_flops() as fc:
                x = Tensor(np.zeros(lead + (5, 10), dtype=np.float32))
                w = Tensor(np.zeros(lead + (7, 10), dtype=np.float32))
                F.linear(x, w, Tensor(np.zeros(lead + (7,), dtype=np.float32)))
            return fc.total

        assert flops((k,)) == k * flops(()) == k * 2 * 5 * 10 * 7

    def test_conv_exact(self):
        # N=2, OC=4, out 8x8, C=3, k=3 → 2*2*4*64*27
        with count_flops() as fc:
            x = Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32))
            w = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
            F.conv2d(x, w, stride=1, padding=1)
        assert fc.total == 2 * 2 * 4 * 64 * 3 * 9

    def test_mlp_model(self):
        m = MLP(8, 4, hidden=(16,), seed=0)
        got = flops_forward(m, (1, 8))
        assert got == 2 * 8 * 16 + 2 * 16 * 4


class TestModelScaling:
    def test_flops_scale_with_batch(self):
        m = resnet20(seed=0, width_mult=0.25)
        f1 = flops_forward(m, (1, 3, 8, 8))
        f4 = flops_forward(m, (4, 3, 8, 8))
        assert abs(f4 - 4 * f1) / f4 < 0.01

    def test_depth_ordering(self):
        f20 = flops_forward(resnet20(seed=0, width_mult=0.25), (1, 3, 8, 8))
        f32 = flops_forward(resnet32(seed=0, width_mult=0.25), (1, 3, 8, 8))
        assert f32 > 1.3 * f20

    def test_vgg_heavier_than_resnet(self):
        fv = flops_forward(vgg11(seed=0, width_mult=0.125, image_size=8), (1, 3, 8, 8))
        fr = flops_forward(resnet20(seed=0, width_mult=0.25), (1, 3, 8, 8))
        assert fv > fr

    def test_paper_scale_resnet20_flops(self):
        """CIFAR ResNet-20 is ~41 MFLOPs/image (2 FLOPs per MAC)."""
        f = flops_forward(resnet20(seed=0), (1, 3, 32, 32))
        assert 70e6 < f < 100e6  # 2x MAC convention + BN/pool overhead

    def test_training_step_is_3x_forward(self):
        m = CNN2Layer(in_channels=3, image_size=8, width_mult=0.25, seed=0)
        assert flops_training_step(m, (2, 3, 8, 8)) == 3 * flops_forward(m, (2, 3, 8, 8))

    def test_eval_restores_training_mode(self):
        m = MLP(8, 4, seed=0)
        m.train()
        flops_forward(m, (1, 8))
        assert m.training
