"""Bit-identity of the stacked (K-leading-axis) training path.

The contract behind ``--executor batched``: every per-client slice of a
stacked program reproduces the serial kernels *bitwise* — same forward
bits, same gradient bits, same SGD trajectory. These tests pin that at the
leaf level (conv, batch norm and the pools against their own serial layer)
and end-to-end (full training steps on every supported architecture family,
momentum + weight decay on). The op level — ``F.linear`` and the losses on a
leading client axis — is pinned in ``tests/nn/test_functional.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.core.ensemble import EnsembleModule
from repro.nn.batched import StackedModel, build_stacked
from repro.nn.layers import (
    GELU,
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.models.factory import build_model
from repro.nn.module import Module, Parameter
from repro.nn.optim.sgd import SGD
from repro.nn.tensor import Tensor

K = 3


def _conv(**kw):
    return lambda: Conv2d(3, 4, rng=np.random.default_rng(0), **kw)


# Every per-slice leaf: case id -> (template factory, training mode).
LEAF_CASES = {
    "conv-k3s1p1-bias": (_conv(kernel_size=3, padding=1, bias=True), True),
    "conv-k3s1p1": (_conv(kernel_size=3, padding=1), True),
    "conv-k3s2p0-bias": (_conv(kernel_size=3, stride=2, bias=True), True),
    "conv-k3s2p0": (_conv(kernel_size=3, stride=2), True),
    "conv-k1-bias": (_conv(kernel_size=1, bias=True), True),
    "conv-k1": (_conv(kernel_size=1), True),
    "bn-train": (lambda: BatchNorm2d(3), True),
    "bn-eval": (lambda: BatchNorm2d(3), False),
    "maxpool-2": (lambda: MaxPool2d(2), True),
    "avgpool-2": (lambda: AvgPool2d(2), True),
    "adaptive-avgpool-1": (lambda: AdaptiveAvgPool2d(1), True),
}


def _random_state(model, rng):
    """A random client state for ``model`` (running variances positive)."""
    state = {key: rng.standard_normal(v.shape).astype(v.dtype)
             for key, v in model.state_dict().items()}
    for key in state:
        if key.endswith("running_var"):
            state[key] = np.abs(state[key]) + 0.5
    return state


class TestPerSliceLeaves:
    """A stacked ``Sequential(leaf)`` ≡ K serial calls of the template leaf:
    output, ``x.grad``, every parameter grad and the state (BN's running
    buffers included), compared as ``uint32`` views."""

    @pytest.mark.parametrize("case", sorted(LEAF_CASES))
    def test_leaf_matches_serial(self, case):
        make, training = LEAF_CASES[case]
        rng = np.random.default_rng(0)
        states = [_random_state(Sequential(make()), rng) for _ in range(K)]
        x = rng.standard_normal((K, 4, 3, 8, 8)).astype(np.float32)

        sm = build_stacked(Sequential(make()), K)
        sm.load_client_states(states)
        sm.train(training)
        xt = Tensor(x, requires_grad=True)
        out = sm(xt)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)

        for i in range(K):
            m = Sequential(make())
            m.load_state_dict(states[i])
            m.train(training)
            xi = Tensor(x[i], requires_grad=True)
            ref = m(xi)
            ref.backward(g[i])
            want = [ref.data, xi.grad] + [p.grad for p in m.parameters()]
            got = [out.data[i], xt.grad[i]] + [p.grad[i] for p in sm.parameters()]
            want += m.state_dict().values()
            got += sm.client_state(i).values()
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.dtype == b.dtype
                np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


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
        loss = F.cross_entropy(logits, ys[t])
        if kl_teacher is not None:
            loss = loss + 0.5 * F.kl_div_with_logits(Tensor(kl_teacher[t]), logits)
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
        loss = F.cross_entropy(sm(x), np.zeros((K, 2), dtype=np.int64))
        loss.backward(np.ones(K, dtype=np.float32))
        assert all(p.grad is not None for p in sm.parameters())
        sm.zero_grad()
        assert all(p.grad is None for p in sm.parameters())
