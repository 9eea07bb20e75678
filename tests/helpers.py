"""Shared test utilities: finite-difference gradient checking, and the
shards and bitwise state comparison of the stacked-trainer parity tests."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.tensor import Tensor


def numeric_grad(
    f: Callable[[], Tensor],
    wrt: Tensor,
    eps: float = 1e-3,
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``wrt.data``.

    ``f`` must recompute the forward pass from current tensor data each call
    (closures over the same Tensor objects).
    """
    base = wrt.data
    grad = np.zeros_like(base, dtype=np.float64)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f().data)
        flat[i] = orig - eps
        lo = float(f().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grads(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    atol: float = 2e-2,
    rtol: float = 2e-2,
) -> None:
    """Assert autograd gradients match central differences for all params.

    Tolerances are loose because the forward runs in float32.
    """
    for p in params:
        p.grad = None
    out = f()
    out.backward()
    for idx, p in enumerate(params):
        assert p.grad is not None, f"param {idx} got no gradient"
        num = numeric_grad(f, p)
        np.testing.assert_allclose(
            p.grad.astype(np.float64),
            num,
            atol=atol,
            rtol=rtol,
            err_msg=f"gradient mismatch for param {idx} (shape {p.shape})",
        )


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def rand_t(shape, seed: int = 0, requires_grad: bool = True, scale: float = 1.0) -> Tensor:
    """Random float32 tensor helper."""
    g = np.random.default_rng(seed)
    return Tensor(
        (g.standard_normal(shape) * scale).astype(np.float32), requires_grad=requires_grad
    )


# Stackable model cases: build_model kwargs for (1, 8, 8) inputs.
STACK_CASES = {
    "mlp": dict(num_classes=4, in_channels=1, image_size=8, width_mult=0.25),
    "cnn-2": dict(num_classes=4, in_channels=1, image_size=8, width_mult=0.25),
}

# Momentum and weight decay on; 20-sample shards in batches of 8 end each
# epoch on a short batch of 4.
SOLVER = dict(batch_size=8, lr=0.05, momentum=0.9, weight_decay=1e-4)


def image_shards(k: int, n: int = 20, seed: int = 0) -> list[ArrayDataset]:
    """``k`` equal-size random (1, 8, 8) shards with 4 classes."""
    g = np.random.default_rng(seed)
    return [
        ArrayDataset(g.standard_normal((n, 1, 8, 8)).astype(np.float32), g.integers(0, 4, n))
        for _ in range(k)
    ]


def assert_same_bits(got, want) -> None:
    """Two state dicts hold the same keys, in order, with equal bits."""
    assert list(got) == list(want)
    for key, a in got.items():
        b = want[key]
        assert a.shape == b.shape and a.dtype == b.dtype, key
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32), err_msg=key)
