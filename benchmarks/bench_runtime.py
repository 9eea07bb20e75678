"""Execution runtime — parallel speedup and fault-injection behaviour.

Two claims to demonstrate:

1. **Speedup**: an 8-client round fanned out over 4 worker processes beats
   serial wall-clock (asserted ≥2× only on machines with ≥4 cores — on
   smaller hosts the parallel backend is still *correct*, just not faster,
   and the bench only reports the ratio).
2. **Degradation, not collapse**: FedKEMF under dropout + lossy uplinks +
   a round deadline still learns; the history shows who failed, why, and
   how long the simulated rounds took.
"""

from __future__ import annotations

import functools
import os
import time

import pytest

from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.experiments.figures import sparkline
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.nn.models import build_model
from repro.runtime.executors import fork_available


def _bench_fed(num_clients=8, seed=0, heavy=False):
    # The speedup measurement needs per-client work that dwarfs the pool's
    # spin-up cost (~100 ms), hence the larger "heavy" federation;
    # the fault bench only needs the behaviour, so it stays tiny.
    if heavy:
        spec = SyntheticSpec(num_classes=10, channels=3, image_size=16, noise_std=0.25)
        n_train = 2400
    else:
        spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
        n_train = 1600
    world = SyntheticImageDataset(spec, seed=seed)
    return build_federated_dataset(
        world,
        num_clients=num_clients,
        n_train=n_train,
        n_test=200,
        n_public=100,
        alpha=0.5,
        seed=seed,
    )


def _model_fn(heavy=False):
    if heavy:
        return build_model("cnn-2", num_classes=10, in_channels=3, image_size=16,
                           width_mult=0.5, seed=1)
    return build_model("mlp", num_classes=4, in_channels=1, image_size=8,
                       width_mult=0.5, seed=1)


def _run(workers: int, fed, rounds=1, heavy=False, **overrides) -> tuple[float, object]:
    cfg = FLConfig(
        rounds=rounds, sample_ratio=1.0, local_epochs=2,
        batch_size=32 if heavy else 16,
        lr=0.05, seed=0, workers=workers, **overrides,
    )
    # a partial (not a lambda) pickles, so the pool is shipped its snapshot
    algo = ALGORITHM_REGISTRY.get("fedavg")(
        functools.partial(_model_fn, heavy=heavy), fed, cfg
    )
    start = time.perf_counter()
    history = algo.run()
    return time.perf_counter() - start, history


@pytest.mark.benchmark(group="runtime")
def test_parallel_speedup(benchmark, save_result):
    """Serial vs 4-worker wall-clock on one 8-client full-participation round."""
    fed = _bench_fed(heavy=True)
    cores = os.cpu_count() or 1

    def run_both():
        t_serial, h_serial = _run(workers=0, fed=fed, heavy=True)
        t_parallel, h_parallel = _run(workers=4, fed=fed, heavy=True)
        return t_serial, t_parallel, h_serial, h_parallel

    t_serial, t_parallel, h_serial, h_parallel = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    speedup = t_serial / t_parallel

    lines = [
        "Execution runtime — parallel client execution (8 clients, 1 round)",
        f"  host cores={cores} fork={'yes' if fork_available() else 'no'}",
        f"  serial   {t_serial * 1e3:8.1f} ms",
        f"  4 workers{t_parallel * 1e3:8.1f} ms",
        f"  speedup  {speedup:8.2f}x",
    ]
    save_result("runtime_speedup", "\n".join(lines))

    # Correctness always holds; the wall-clock claim needs the cores.
    assert h_serial.records[-1].accuracy == h_parallel.records[-1].accuracy
    assert h_serial.total_bytes == h_parallel.total_bytes
    if cores >= 4 and fork_available():
        assert speedup >= 2.0, f"expected >=2x speedup on {cores} cores, got {speedup:.2f}x"


@pytest.mark.benchmark(group="runtime")
def test_faulty_run_degrades_gracefully(benchmark, save_result):
    """FedKEMF-style faults: dropout + loss + deadline, 5 rounds."""
    fed = _bench_fed()

    def run_faulty():
        return _run(
            workers=0,
            fed=fed,
            rounds=5,
            faults="dropout=0.3,loss=0.1,straggler=0.5,slowdown=3",
            deadline=3600.0,
        )

    _t, history = benchmark.pedantic(run_faulty, rounds=1, iterations=1)

    fails = history.total_failures()
    lines = [
        "Execution runtime — faulty fleet (dropout=0.3, loss=0.1, stragglers, deadline)",
        f"  accuracy {sparkline(history.accuracies)} final={history.final_accuracy:.2%}",
        f"  participation per round: {history.participation.tolist()} "
        f"(sampled {[r.num_sampled for r in history.records]})",
        f"  failures: {fails or 'none'}",
        f"  simulated round times (s): "
        + ", ".join(f"{t:.2f}" for t in history.sim_times),
    ]
    save_result("runtime_faults", "\n".join(lines))

    assert history.num_rounds == 5
    assert history.participation.min() >= 1  # learning never fully stalled
    assert (history.sim_times > 0).all()
    assert sum(fails.values()) > 0  # the fault plan actually fired
