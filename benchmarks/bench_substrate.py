"""Substrate micro-benchmarks: the NumPy DL engine's hot paths.

These are conventional pytest-benchmark timings (many iterations) — they
track the throughput of the kernels every experiment above is built on.

``test_substrate_speedup`` is the hot-path benchmark *gate*: it times the
fast conv and max-pool kernels against their reference formulations, writes
the table to ``benchmarks/results/substrate_speedup.txt``, and asserts the
col2im speedup floor (≥2×).

Runnable standalone for CI smoke checks (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_substrate.py --smoke
"""

import argparse
import os
import sys
import timeit

import numpy as np
import pytest

from repro.core.ensemble import ensemble_logits
from repro.nn import functional as F
from repro.nn.functional import (
    _col2im_accumulate,
    _col2im_scatter,
    _im2col,
    _im2col_gather,
)
from repro.nn.models import resnet20, vgg11
from repro.nn.serialization import dumps_state_dict, loads_state_dict, average_states
from repro.nn.tensor import Tensor


@pytest.fixture(scope="module")
def conv_input():
    return Tensor(np.random.default_rng(0).standard_normal((32, 3, 16, 16)).astype(np.float32))


@pytest.fixture(scope="module")
def small_resnet():
    return resnet20(seed=0, width_mult=0.25)


@pytest.mark.benchmark(group="substrate-forward")
def test_resnet20_forward(benchmark, small_resnet, conv_input):
    small_resnet.eval()
    from repro.nn import no_grad

    def fwd():
        with no_grad():
            return small_resnet(conv_input)

    benchmark(fwd)


@pytest.mark.benchmark(group="substrate-backward")
def test_resnet20_forward_backward(benchmark, small_resnet, conv_input):
    labels = np.random.default_rng(1).integers(0, 10, 32)
    small_resnet.train()

    def step():
        small_resnet.zero_grad()
        loss = F.cross_entropy(small_resnet(conv_input), labels)
        loss.backward()
        return loss

    benchmark(step)


@pytest.mark.benchmark(group="substrate-ops")
def test_conv2d_kernel(benchmark):
    x = Tensor(np.random.default_rng(0).standard_normal((32, 16, 16, 16)).astype(np.float32))
    w = Tensor(np.random.default_rng(1).standard_normal((32, 16, 3, 3)).astype(np.float32))
    benchmark(lambda: F.conv2d(x, w, stride=1, padding=1))


@pytest.mark.benchmark(group="substrate-ops")
def test_batchnorm_kernel(benchmark):
    x = Tensor(np.random.default_rng(0).standard_normal((32, 16, 16, 16)).astype(np.float32))
    gamma = Tensor(np.ones(16, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
    rm = np.zeros(16, dtype=np.float32)
    rv = np.ones(16, dtype=np.float32)
    benchmark(lambda: F.batch_norm2d(x, gamma, beta, rm, rv, training=True))


@pytest.mark.benchmark(group="substrate-ops")
def test_softmax_xent(benchmark):
    logits = Tensor(np.random.default_rng(0).standard_normal((256, 10)).astype(np.float32), requires_grad=True)
    labels = np.random.default_rng(1).integers(0, 10, 256)
    benchmark(lambda: F.cross_entropy(logits, labels))


@pytest.mark.benchmark(group="substrate-comm")
def test_serialize_resnet20_paper_width(benchmark):
    sd = resnet20(seed=0).state_dict()
    payload = benchmark(lambda: dumps_state_dict(sd))
    assert 1.05e6 < len(payload) < 1.15e6  # the paper's ~1.05 MB knowledge net


@pytest.mark.benchmark(group="substrate-comm")
def test_deserialize_resnet20(benchmark):
    payload = dumps_state_dict(resnet20(seed=0).state_dict())
    benchmark(lambda: loads_state_dict(payload))


@pytest.mark.benchmark(group="substrate-comm")
def test_fedavg_aggregation_kernel(benchmark):
    states = [resnet20(seed=s, width_mult=0.5).state_dict() for s in range(8)]
    weights = list(np.random.default_rng(0).uniform(1, 10, 8))
    benchmark(lambda: average_states(states, weights))


@pytest.mark.benchmark(group="substrate-ensemble")
def test_ensemble_max_kernel(benchmark):
    stacked = np.random.default_rng(0).standard_normal((16, 1024, 10)).astype(np.float32)
    benchmark(lambda: ensemble_logits(stacked, "max"))


@pytest.mark.benchmark(group="substrate-ensemble")
def test_ensemble_vote_kernel(benchmark):
    stacked = np.random.default_rng(0).standard_normal((16, 1024, 10)).astype(np.float32)
    benchmark(lambda: ensemble_logits(stacked, "vote"))


@pytest.mark.benchmark(group="substrate-payloads")
def test_payload_size_ratios(benchmark):
    """The static quantity behind Table 1: VGG-11 / ResNet-20 payload ratio."""

    def sizes():
        return (
            vgg11(seed=0).num_bytes(),
            resnet20(seed=0).num_bytes(),
        )

    vgg_b, r20_b = benchmark.pedantic(sizes, rounds=1, iterations=1)
    ratio = vgg_b / r20_b
    # paper: 42 MB vs 2.1 MB per round → 20x; fp32 payloads give ~33x
    assert ratio > 15, f"VGG/knowledge payload ratio collapsed: {ratio:.1f}"


# --------------------------------------------------------------------- #
# speedup gate: fast kernels vs reference oracles
# --------------------------------------------------------------------- #

# conv2d-backward-shaped workload: cols of a (32, 16, 16, 16) k3 s1 p1 conv
_KERNEL_GEOM = (32, 16, 16, 16, 3, 1, 1)
_CONV_FWD_SHAPE = (256, 3, 16, 16)  # → 8 channels, 5×5, pad 2
_POOL_SHAPE = (256, 8, 16, 16)  # 2×2 windows
_ROWS = ("col2im", "im2col", "conv_fwd", "max_pool")


def _kernel_speedups(repeats: int = 5, number: int = 3) -> dict:
    """Best-of-``repeats`` timings of fast vs reference im2col/col2im."""
    n, c, h, w, k, stride, pad = _KERNEL_GEOM
    x = np.random.default_rng(0).standard_normal((n, c, h, w)).astype(np.float32)
    cols, _, _ = _im2col_gather(x, k, k, stride, pad)
    cols = np.ascontiguousarray(cols)
    shape = x.shape

    def best(fn):
        return min(timeit.repeat(fn, repeat=repeats, number=number)) / number

    out = {
        "col2im_ref": best(lambda: _col2im_scatter(cols, shape, k, k, stride, pad)),
        "col2im_fast": best(lambda: _col2im_accumulate(cols, shape, k, k, stride, pad)),
        "im2col_ref": best(lambda: _im2col_gather(x, k, k, stride, pad)),
        "im2col_fast": best(lambda: _im2col(x, k, k, stride, pad)),
    }
    # conv forward and max-pool at the public-set chunk the ensemble teacher
    # forwards (cnn-2's first layer): the reference operand pays the
    # transposing copy einsum used to hide; the reference pool is the
    # two-axis reduce.
    xc = np.random.default_rng(1).standard_normal(_CONV_FWD_SHAPE).astype(np.float32)
    w2 = np.random.default_rng(2).standard_normal((8, 3 * 5 * 5)).astype(np.float32)
    for name, rows_fn in (("ref", F._im2col_rows_reference), ("fast", F._im2col_rows)):
        out[f"conv_fwd_{name}"] = best(
            lambda: F._conv_forward(rows_fn(F._pad_input(xc, 2), 5, 5, 1), w2, None, len(xc))
        )
    xp = np.random.default_rng(3).standard_normal(_POOL_SHAPE).astype(np.float32)
    n, c, h, w = _POOL_SHAPE
    out["max_pool_ref"] = best(lambda: xp.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5)))
    out["max_pool_fast"] = best(lambda: F._window_max(xp, 2))
    for row in _ROWS:
        out[f"{row}_speedup"] = out[f"{row}_ref"] / out[f"{row}_fast"]
    return out


def _render_speedup(kern: dict, cores: int) -> str:
    lines = [
        "substrate speedup (fast paths vs references)",
        "=" * 52,
        f"host cores: {cores}",
        "",
        "kernels (conv (32,16,16,16) k3 s1 p1, best-of-5):",
    ]
    for row in _ROWS:
        if row == "conv_fwd":
            lines += ["", f"conv forward {_CONV_FWD_SHAPE} -> 8ch k5 s1 p2, "
                      f"2x2 max-pool {_POOL_SHAPE} (best-of-5):"]
        lines.append(
            f"  {row:<8} reference {kern[f'{row}_ref'] * 1e3:8.2f} ms   "
            f"fast {kern[f'{row}_fast'] * 1e3:8.2f} ms   {kern[f'{row}_speedup']:5.2f}x"
        )
    lines += ["", "im2col: both sides gather; the fast one lands the (N*L, F) GEMM operand,",
              "which is what removes the reference's transposing copy in conv_fwd."]
    return "\n".join(lines)


@pytest.mark.benchmark(group="substrate-speedup")
def test_substrate_speedup(benchmark, save_result):
    """The acceptance gate: col2im fast path ≥2× its reference."""
    cores = os.cpu_count() or 1
    kern = benchmark.pedantic(_kernel_speedups, rounds=1, iterations=1)
    save_result("substrate_speedup", _render_speedup(kern, cores))

    assert kern["col2im_speedup"] >= 2.0, (
        f"col2im fast path regressed: {kern['col2im_speedup']:.2f}x < 2x"
    )


# --------------------------------------------------------------------- #
# standalone smoke entry point (CI: no pytest-benchmark required)
# --------------------------------------------------------------------- #

def _smoke() -> int:
    """Fast correctness-first pass for CI: fast paths must be bitwise equal
    to their references on a few geometries. Timings are printed, not
    asserted — CI hosts are too noisy for wall-clock gates."""
    for geom in [(2, 3, 8, 8, 3, 1, 1), (1, 2, 9, 9, 5, 2, 0), (2, 1, 7, 7, 1, 1, 1)]:
        n, c, h, w, k, stride, pad = geom
        x = np.random.default_rng(0).standard_normal((n, c, h, w)).astype(np.float32)
        ref_cols, _, _ = _im2col_gather(x, k, k, stride, pad)
        fast_cols, _, _ = _im2col(x, k, k, stride, pad)
        np.testing.assert_array_equal(fast_cols, ref_cols)
        cols = np.ascontiguousarray(ref_cols)
        np.testing.assert_array_equal(
            _col2im_accumulate(cols, x.shape, k, k, stride, pad),
            _col2im_scatter(cols, x.shape, k, k, stride, pad),
        )
        print(f"kernel parity ok: geom={geom}")
    kern = _kernel_speedups(repeats=3, number=1)
    print(", ".join(f"{row} {kern[f'{row}_speedup']:.2f}x" for row in _ROWS), "(informational)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast correctness pass (CI); timings informational")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    cores = os.cpu_count() or 1
    print(_render_speedup(_kernel_speedups(), cores))
    return 0


if __name__ == "__main__":
    sys.exit(main())
