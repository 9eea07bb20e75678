"""Population scale: peak RSS and round throughput vs federation size.

The lazy data path (``repro.data.lazy``) keeps a federation's footprint
proportional to the *cohort* — the few-percent sample trained each round —
instead of the population. This bench charts that curve: one FedAvg run per
``num_clients`` in {1e2 .. 1e6}, each in its own subprocess so
``ru_maxrss`` measures that run alone, recording rounds/sec, peak RSS and
the run fingerprint. Where the eager builder still fits in memory it runs
the same configuration eagerly and checks the fingerprints match — lazy
materialization is a residency policy, never a trajectory change.

Every run streams its history to a JSONL sink (``history_stream``) and caps
the cohort at ``MAX_COHORT`` — the same knobs a real million-client run
would use — so the measured RSS reflects the full constant-memory stack.

``test_scale_smoke`` is the CI gate: it writes
``benchmarks/results/scale_curve.txt`` and asserts (a) lazy == eager
fingerprints at every smoke size, (b) peak RSS stays under
``SMOKE_RSS_CEILING_MB``, (c) growth is sub-linear — a 100x client
increase must cost well under 10x the memory — and (d) at the largest size
the eager builder ran, the lazy run peaks no higher than the eager one.

Runnable standalone (the full curve takes minutes at the 1e6 row)::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke   # CI sizes
    PYTHONPATH=src python benchmarks/bench_scale.py           # full curve
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
RESULTS = pathlib.Path(__file__).resolve().parent / "results"

SMOKE_SIZES = (100, 1_000, 10_000)
FULL_SIZES = (100, 1_000, 10_000, 100_000, 1_000_000)
ROUNDS = 3
SAMPLE_RATIO = 0.05
MAX_COHORT = 50_000  # the ISSUE's 1e6-client bound: <= 50k active per round
EAGER_MAX = 100_000  # beyond this the eager builder is the thing being avoided
SMOKE_RSS_CEILING_MB = 1024.0
SMOKE_SUBLINEAR_FACTOR = 10.0  # 100x clients must cost < 10x peak RSS


def _child_run(num_clients: int, mode: str, rounds: int) -> dict:
    """One measured run, executed *inside* the subprocess (``--child``).

    Small world (8px, 1 channel), IID partition with two rows per client so
    population size — not data volume — dominates, and the zoo's smallest
    MLP as the communicated model. ``peak_rss_mb`` is ``ru_maxrss`` for this
    process, which is why each measurement needs its own process: the
    counter is monotonic and would otherwise report the largest prior run.
    """
    import resource
    import time

    from repro.data.federated import build_federated_dataset
    from repro.data.lazy import LazyFederatedDataset
    from repro.data.partition import IIDPartitioner
    from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
    from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
    from repro.nn.models import build_model

    spec = SyntheticSpec(num_classes=10, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    builder = LazyFederatedDataset if mode == "lazy" else build_federated_dataset
    fed = builder(
        world,
        num_clients=num_clients,
        n_train=max(2_048, 2 * num_clients),
        n_test=256,
        n_public=64,
        partitioner=IIDPartitioner(num_clients, seed=0),
        seed=0,
    )
    cfg = FLConfig(
        rounds=rounds,
        sample_ratio=SAMPLE_RATIO,
        local_epochs=1,
        batch_size=2,
        lr=0.05,
        seed=0,
        max_cohort=MAX_COHORT,
    )

    def model_fn():
        return build_model(
            "mlp", num_classes=10, in_channels=1, image_size=8,
            width_mult=0.125, seed=1,
        )

    algo = ALGORITHM_REGISTRY.get("fedavg")(model_fn, fed, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        history = algo.run(history_stream=os.path.join(tmp, "history.jsonl"))
        elapsed = time.perf_counter() - start
        fingerprint = history.fingerprint()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "clients": num_clients,
        "mode": mode,
        "cohort": algo.sampler.per_round,
        "rounds_per_sec": rounds / elapsed,
        "peak_rss_mb": peak_kb / 1024.0,
        "fingerprint": fingerprint,
    }


def _spawn(num_clients: int, mode: str, rounds: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(num_clients),
         "--mode", mode, "--rounds", str(rounds)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale child ({num_clients} clients, {mode}) failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(sizes, rounds: int = ROUNDS, eager_max: int = EAGER_MAX) -> "list[dict]":
    rows = []
    for n in sizes:
        lazy = _spawn(n, "lazy", rounds)
        eager = _spawn(n, "eager", rounds) if n <= eager_max else None
        rows.append({
            "clients": n,
            "lazy": lazy,
            "eager": eager,
            "match": None if eager is None
            else lazy["fingerprint"] == eager["fingerprint"],
        })
    return rows


def _render(rows: "list[dict]") -> str:
    lines = [
        "population scale curve (lazy FedAvg, 5% sampled, cohort cap "
        f"{MAX_COHORT})",
        "=" * 66,
        f"{'clients':>10}  {'cohort':>7}  {'rounds/s':>9}  "
        f"{'lazy RSS MB':>11}  {'eager RSS MB':>12}  parity",
    ]
    for r in rows:
        lazy, eager = r["lazy"], r["eager"]
        eager_rss = f"{eager['peak_rss_mb']:12.1f}" if eager else f"{'—':>12}"
        parity = {True: "match", False: "MISMATCH", None: "(eager skipped)"}[r["match"]]
        lines.append(
            f"{r['clients']:>10}  {lazy['cohort']:>7}  "
            f"{lazy['rounds_per_sec']:>9.2f}  {lazy['peak_rss_mb']:>11.1f}  "
            f"{eager_rss}  {parity}"
        )
    lo, hi = rows[0]["lazy"], rows[-1]["lazy"]
    growth = hi["peak_rss_mb"] / lo["peak_rss_mb"]
    lines += [
        "",
        f"peak-RSS growth {lo['clients']} -> {hi['clients']} clients: "
        f"{growth:.2f}x for {hi['clients'] // lo['clients']}x the population",
        "gate (smoke): fingerprints match, RSS ceiling "
        f"{SMOKE_RSS_CEILING_MB:.0f} MB, growth < {SMOKE_SUBLINEAR_FACTOR:.0f}x "
        "per 100x clients, lazy RSS <= eager RSS at the largest eager size",
    ]
    return "\n".join(lines)


def _assert_smoke(rows: "list[dict]") -> None:
    for r in rows:
        assert r["match"] is not False, (
            f"lazy/eager fingerprint mismatch at {r['clients']} clients: "
            f"{r['lazy']['fingerprint']} != {r['eager']['fingerprint']}"
        )
    peak = rows[-1]["lazy"]["peak_rss_mb"]
    assert peak < SMOKE_RSS_CEILING_MB, (
        f"peak RSS {peak:.1f} MB at {rows[-1]['clients']} clients exceeds the "
        f"{SMOKE_RSS_CEILING_MB:.0f} MB smoke ceiling"
    )
    both = [r for r in rows if r["eager"] is not None][-1]
    lazy_peak, eager_peak = both["lazy"]["peak_rss_mb"], both["eager"]["peak_rss_mb"]
    assert lazy_peak <= eager_peak, (
        f"lazy peak RSS {lazy_peak:.1f} MB exceeds eager {eager_peak:.1f} MB at "
        f"{both['clients']} clients — the lazy path holds more than the whole build"
    )
    lo, hi = rows[0]["lazy"], rows[-1]["lazy"]
    growth = hi["peak_rss_mb"] / lo["peak_rss_mb"]
    client_growth = hi["clients"] / lo["clients"]
    assert growth < SMOKE_SUBLINEAR_FACTOR * (client_growth / 100.0), (
        f"peak RSS grew {growth:.2f}x over a {client_growth:.0f}x client "
        "increase — lazy materialization is no longer sub-linear"
    )


@pytest.mark.benchmark(group="scale-curve")
def test_scale_smoke(benchmark, save_result):
    """CI gate: the smoke slice of the scale curve must show sub-linear
    peak-RSS growth with lazy == eager fingerprints at every size."""
    rows = benchmark.pedantic(
        lambda: _measure(SMOKE_SIZES), rounds=1, iterations=1
    )
    save_result("scale_curve", _render(rows))
    _assert_smoke(rows)


# --------------------------------------------------------------------- #
# standalone entry point (CI smoke + the full curve)
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizes (<= 10k clients) with assertions")
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="lazy", choices=["lazy", "eager"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=ROUNDS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(_child_run(args.child, args.mode, args.rounds)))
        return 0

    rows = _measure(SMOKE_SIZES if args.smoke else FULL_SIZES)
    text = _render(rows)
    print(text)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "scale_curve.txt").write_text(text + "\n")
    if args.smoke:
        _assert_smoke(rows)
        print("smoke gate ok: sub-linear RSS, lazy <= eager RSS, fingerprints match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
