"""Bit-identity of the stacked (K-leading-axis) training path.

The contract behind ``--executor batched``: every per-client slice of a
stacked program reproduces the serial kernels *bitwise* — same forward
bits, same gradient bits, same SGD trajectory. These tests pin that at the
op level (linear/conv/bn/pools/losses) and end-to-end (full training steps
on every supported architecture family, momentum + weight decay on).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.core.ensemble import EnsembleModule
from repro.nn.batched import (
    StackedModel,
    batch_norm2d_k,
    build_stacked,
    conv2d_k,
    cross_entropy_k,
    kl_div_with_logits_k,
    linear_k,
    max_pool2d_k,
)
from repro.nn.layers import (
    GELU,
    AdaptiveAvgPool2d,
    Dropout,
    Flatten,
    Identity,
    LeakyReLU,
    Linear,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.models.factory import build_model
from repro.nn.module import Module, Parameter
from repro.nn.optim.sgd import SGD
from repro.nn.tensor import Tensor

K = 3


def _param(rng, shape):
    return Parameter(rng.standard_normal(shape).astype(np.float32))


class TestStackedOps:
    """Per-slice forward/backward bits match the serial kernels."""

    def test_linear_k(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((K, 5, 7)).astype(np.float32), requires_grad=True)
        w = _param(rng, (K, 4, 7))
        b = _param(rng, (K, 4))
        out = linear_k(x, w, b)
        out.backward(np.ones_like(out.data))
        for i in range(K):
            xi = Tensor(x.data[i], requires_grad=True)
            wi = Parameter(w.data[i])
            bi = Parameter(b.data[i])
            ref = F.linear(xi, wi, bi)
            ref.backward(np.ones_like(ref.data))
            np.testing.assert_array_equal(out.data[i], ref.data)
            np.testing.assert_array_equal(x.grad[i], xi.grad)
            np.testing.assert_array_equal(w.grad[i], wi.grad)
            np.testing.assert_array_equal(b.grad[i], bi.grad)

    def test_conv2d_k(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((K, 2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        w = _param(rng, (K, 4, 3, 3, 3))
        b = _param(rng, (K, 4))
        out = conv2d_k(x, w, b, stride=1, padding=1)
        g = rng.standard_normal(out.data.shape).astype(np.float32)
        out.backward(g)
        for i in range(K):
            xi = Tensor(x.data[i], requires_grad=True)
            wi = Parameter(w.data[i])
            bi = Parameter(b.data[i])
            ref = F.conv2d(xi, wi, bi, stride=1, padding=1)
            ref.backward(g[i])
            np.testing.assert_array_equal(out.data[i], ref.data)
            np.testing.assert_array_equal(x.grad[i], xi.grad)
            np.testing.assert_array_equal(w.grad[i], wi.grad)
            np.testing.assert_array_equal(b.grad[i], bi.grad)

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm2d_k(self, training):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((K, 4, 3, 5, 5)).astype(np.float32), requires_grad=True)
        gamma = _param(rng, (K, 3))
        beta = _param(rng, (K, 3))
        rm = rng.standard_normal((K, 3)).astype(np.float32)
        rv = np.abs(rng.standard_normal((K, 3))).astype(np.float32) + 0.5
        rm_ref, rv_ref = rm.copy(), rv.copy()
        out = batch_norm2d_k(x, gamma, beta, rm, rv, training=training)
        g = rng.standard_normal(out.data.shape).astype(np.float32)
        out.backward(g)
        for i in range(K):
            xi = Tensor(x.data[i], requires_grad=True)
            gi = Parameter(gamma.data[i])
            bi = Parameter(beta.data[i])
            rmi, rvi = rm_ref[i].copy(), rv_ref[i].copy()
            ref = F.batch_norm2d(xi, gi, bi, rmi, rvi, training=training)
            ref.backward(g[i])
            np.testing.assert_array_equal(out.data[i], ref.data)
            np.testing.assert_array_equal(x.grad[i], xi.grad)
            np.testing.assert_array_equal(gamma.grad[i], gi.grad)
            np.testing.assert_array_equal(beta.grad[i], bi.grad)
            np.testing.assert_array_equal(rm[i], rmi)  # EMA updated identically
            np.testing.assert_array_equal(rv[i], rvi)

    def test_max_pool2d_k(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((K, 2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        out = max_pool2d_k(x, 2)
        g = rng.standard_normal(out.data.shape).astype(np.float32)
        out.backward(g)
        for i in range(K):
            xi = Tensor(x.data[i], requires_grad=True)
            ref = F.max_pool2d(xi, 2)
            ref.backward(g[i])
            np.testing.assert_array_equal(out.data[i], ref.data)
            np.testing.assert_array_equal(x.grad[i], xi.grad)

    def test_cross_entropy_k(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.standard_normal((K, 6, 5)).astype(np.float32), requires_grad=True)
        labels = rng.integers(0, 5, size=(K, 6))
        losses = cross_entropy_k(logits, labels)
        losses.backward(np.full(K, 0.75, dtype=np.float32))
        for i in range(K):
            li = Tensor(logits.data[i], requires_grad=True)
            ref = F.cross_entropy(li, labels[i])
            ref.backward(np.float32(0.75))
            assert float(losses.data[i]) == ref.item()
            np.testing.assert_array_equal(logits.grad[i], li.grad)

    def test_kl_div_with_logits_k(self):
        rng = np.random.default_rng(5)
        teacher = Tensor(rng.standard_normal((K, 6, 5)).astype(np.float32))
        student = Tensor(rng.standard_normal((K, 6, 5)).astype(np.float32), requires_grad=True)
        kl = kl_div_with_logits_k(teacher, student)
        kl.backward(np.ones(K, dtype=np.float32))
        for i in range(K):
            si = Tensor(student.data[i], requires_grad=True)
            ref = F.kl_div_with_logits(Tensor(teacher.data[i]), si)
            ref.backward(np.float32(1.0))
            assert float(kl.data[i]) == ref.item()
            np.testing.assert_array_equal(student.grad[i], si.grad)


MODEL_CASES = {
    "mlp": (dict(num_classes=4, in_channels=1, image_size=8, width_mult=0.25), (1, 8, 8)),
    "cnn-2": (dict(num_classes=4, in_channels=1, image_size=8, width_mult=0.25), (1, 8, 8)),
    "resnet-20": (dict(num_classes=4, in_channels=3, image_size=8, width_mult=0.25), (3, 8, 8)),
    "vgg-11": (dict(num_classes=4, in_channels=3, image_size=8, width_mult=0.125), (3, 8, 8)),
    # Every elementwise leaf and a bias-less Linear, none of which the zoo uses.
    "elementwise": (dict(num_classes=4), (1, 8, 8)),
}


def _build(name, seed, **kw):
    if name != "elementwise":
        return build_model(name, seed=seed, **kw)
    rng = np.random.default_rng(seed)
    return Sequential(
        Flatten(), Linear(64, 16, bias=False, rng=rng), Tanh(), GELU(), LeakyReLU(0.2),
        Sigmoid(), Identity(), Dropout(0.0), Linear(16, kw["num_classes"], rng=rng),
    )


def _train_pair(name, kw, shape, steps=2, kl_teacher=None):
    """Train K clients serially and stacked; return (serial, stacked) states
    and per-step loss bits."""
    rng = np.random.default_rng(0)
    classes = kw["num_classes"]
    states = [_build(name, 10 + i, **kw).state_dict() for i in range(K)]
    xs = rng.standard_normal((steps, K, 4) + shape).astype(np.float32)
    ys = rng.integers(0, classes, size=(steps, K, 4))

    serial_states, serial_losses = [], []
    for i in range(K):
        m = _build(name, 0, **kw)
        m.load_state_dict(states[i])
        opt = SGD(m.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        m.train()
        ls = []
        for t in range(steps):
            m.zero_grad()
            logits = m(Tensor(xs[t, i]))
            loss = F.cross_entropy(logits, ys[t, i])
            if kl_teacher is not None:
                loss = loss + 0.5 * F.kl_div_with_logits(Tensor(kl_teacher[t, i]), logits)
            loss.backward()
            opt.step()
            ls.append(loss.item())
        serial_states.append(m.state_dict())
        serial_losses.append(ls)

    template = _build(name, 7, **kw)
    sm = build_stacked(template, K)
    assert sm is not None
    # The stack's flat keys are the template's state_dict keys, in order.
    assert list(sm.client_state(0)) == list(template.state_dict())
    sm.load_client_states(states)
    opt = SGD(sm.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
    sm.train()
    ones = np.ones(K, dtype=np.float32)
    stacked_losses = [[] for _ in range(K)]
    for t in range(steps):
        sm.zero_grad()
        logits = sm(Tensor(xs[t]))
        loss = cross_entropy_k(logits, ys[t])
        if kl_teacher is not None:
            loss = loss + 0.5 * kl_div_with_logits_k(Tensor(kl_teacher[t]), logits)
        loss.backward(ones)
        opt.step()
        for i in range(K):
            stacked_losses[i].append(float(loss.data[i]))
    return serial_states, serial_losses, sm, stacked_losses


class TestStackedTrainingBitIdentity:
    @pytest.mark.parametrize("name", sorted(MODEL_CASES))
    def test_model_family(self, name):
        kw, shape = MODEL_CASES[name]
        serial_states, serial_losses, sm, stacked_losses = _train_pair(name, kw, shape)
        assert serial_losses == stacked_losses
        for i in range(K):
            got = sm.client_state(i)
            for key, want in serial_states[i].items():
                np.testing.assert_array_equal(want, got[key], err_msg=key)

    def test_composite_ce_plus_kl_loss(self):
        # The DML-shaped loss: CE + λ·KL against a fixed teacher.
        kw, shape = MODEL_CASES["resnet-20"]
        teacher = np.random.default_rng(99).standard_normal((2, K, 4, 4)).astype(np.float32)
        serial_states, serial_losses, sm, stacked_losses = _train_pair(
            "resnet-20", kw, shape, kl_teacher=teacher
        )
        assert serial_losses == stacked_losses
        for i in range(K):
            got = sm.client_state(i)
            for key, want in serial_states[i].items():
                np.testing.assert_array_equal(want, got[key], err_msg=key)


class _Exotic(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.zeros((2, 2), dtype=np.float32))

    def forward(self, x):  # pragma: no cover - never traced
        return x


class _FlattenByBatch(Module):
    def __init__(self):
        super().__init__()
        self.fc = Linear(64, 4, rng=np.random.default_rng(0))

    def forward(self, x):  # pragma: no cover - never traced
        return self.fc(x.reshape(x.shape[0], -1))


class TestBuildStacked:
    def test_state_roundtrip(self):
        kw, _ = MODEL_CASES["cnn-2"]
        states = [build_model("cnn-2", seed=20 + i, **kw).state_dict() for i in range(K)]
        sm = build_stacked(build_model("cnn-2", seed=0, **kw), K)
        sm.load_client_states(states)
        for i in range(K):
            got = sm.client_state(i)
            assert list(got) == list(states[i])
            for key in got:
                np.testing.assert_array_equal(got[key], states[i][key], err_msg=key)

    def test_load_client_states_needs_one_state_per_client(self):
        # A short list would leave the remaining slices uninitialised, and
        # they would then train silently.
        kw, _ = MODEL_CASES["mlp"]
        sm = build_stacked(build_model("mlp", seed=0, **kw), K)
        states = [build_model("mlp", seed=50 + i, **kw).state_dict() for i in range(K)]
        for wrong in (states[:-1], states + states[:1]):
            with pytest.raises(ValueError, match=f"expected {K} client states"):
                sm.load_client_states(wrong)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: _Exotic(), id="exotic"),
            # Off the allowlist, and its forward would flatten the client axis.
            pytest.param(lambda: _FlattenByBatch(), id="container-off-allowlist"),
            pytest.param(
                lambda: EnsembleModule([build_model("mlp", seed=s, **MODEL_CASES["mlp"][0])
                                        for s in (0, 1)]),
                id="ensemble",
            ),
            pytest.param(lambda: Sequential(AdaptiveAvgPool2d(2), Flatten()), id="adaptive-pool-2"),
        ],
    )
    def test_unsupported_module_returns_none(self, make):
        assert build_stacked(make(), K) is None

    def test_active_dropout_returns_none(self):
        # Stochastic layers have no lockstep equivalent; the builder must
        # decline so the executor falls back to the serial oracle.
        from repro.nn.models.vgg import VGG

        model = VGG(
            "vgg11", num_classes=4, in_channels=3, image_size=8,
            width_mult=0.125, dropout=0.5, seed=0,
        )
        assert build_stacked(model, K) is None

    def test_eval_matches_serial(self):
        kw, shape = MODEL_CASES["resnet-20"]
        states = [build_model("resnet-20", seed=30 + i, **kw).state_dict() for i in range(K)]
        sm = build_stacked(build_model("resnet-20", seed=0, **kw), K)
        sm.load_client_states(states)
        sm.eval()
        x = np.random.default_rng(6).standard_normal((K, 4) + shape).astype(np.float32)
        out = sm(Tensor(x))
        for i in range(K):
            m = build_model("resnet-20", seed=0, **kw)
            m.load_state_dict(states[i])
            m.eval()
            np.testing.assert_array_equal(out.data[i], m(Tensor(x[i])).data)

    def test_isolated_stack(self):
        # The stack owns copies: training it must not touch the templates.
        kw, _ = MODEL_CASES["mlp"]
        template = build_model("mlp", seed=0, **kw)
        before = {k: v.copy() for k, v in template.state_dict().items()}
        sm = build_stacked(template, K)
        states = [build_model("mlp", seed=40 + i, **kw).state_dict() for i in range(K)]
        sm.load_client_states(states)
        for p in sm.parameters():
            p.data += 1.0
        after = template.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)
        for mine in sm.state_dict(copy=False).values():
            for theirs in template.state_dict(copy=False).values():
                assert not np.shares_memory(mine, theirs)
        template.eval()
        template.net[1].train()
        flags = [m.training for m in template.modules()]
        sm.eval()
        sm.train()
        assert [m.training for m in template.modules()] == flags


class TestStackedModelContract:
    def test_zero_grad_and_parameters(self):
        kw, _ = MODEL_CASES["mlp"]
        sm = build_stacked(build_model("mlp", seed=0, **kw), K)
        assert isinstance(sm, StackedModel)
        assert all(p.data.shape[0] == K for p in sm.parameters())
        x = Tensor(np.zeros((K, 2, 1, 8, 8), dtype=np.float32))
        loss = cross_entropy_k(sm(x), np.zeros((K, 2), dtype=np.int64))
        loss.backward(np.ones(K, dtype=np.float32))
        assert all(p.grad is not None for p in sm.parameters())
        sm.zero_grad()
        assert all(p.grad is None for p in sm.parameters())
