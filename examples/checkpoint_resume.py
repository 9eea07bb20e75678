#!/usr/bin/env python3
"""Durable runs: checkpoint a faulty FL run mid-schedule and resume it.

Long sweeps die for boring reasons — preemption, OOM, a reboot. With a
checkpoint directory configured, the complete run state (global model,
algorithm server state, communication ledger, partial history) is
snapshotted atomically every ``checkpoint_every`` rounds, and a later
process continues exactly where the run stopped. Because every stochastic
stream (client sampling, loader shuffles, fault plans) is a pure function
of ``(seed, round, client)``, the resumed run replays **bit-identically**:
this script proves it by comparing against an uninterrupted run.

The same mechanism backs the CLI::

    python -m repro.experiments.cli table1 --checkpoint-dir ck/     # killed at round 7...
    python -m repro.experiments.cli table1 --checkpoint-dir ck/ --resume   # ...continues at 7

Run:  python examples/checkpoint_resume.py
"""

import tempfile

import numpy as np

from repro.data import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl import FedAvg, FLConfig
from repro.fl.checkpoint import load_run_checkpoint, run_checkpoint_path

ROUNDS = 8
KILL_AT = 4  # the "crash": we simply stop the first process here


def build_federation():
    world = SyntheticImageDataset(
        SyntheticSpec(num_classes=10, channels=3, image_size=8, noise_std=0.25),
        seed=0,
    )
    return build_federated_dataset(
        world, num_clients=8, n_train=640, n_test=160, n_public=160, alpha=0.3, seed=0
    )


def make_algo(fed):
    from repro.nn.models import build_model

    def model_fn():
        return build_model("cnn-2", in_channels=3, image_size=8, width_mult=0.25, seed=1)

    # Faults active: 30% of sampled clients drop, 10% lose their upload.
    cfg = FLConfig(
        rounds=ROUNDS,
        sample_ratio=0.5,
        local_epochs=1,
        batch_size=16,
        seed=7,
        faults="dropout=0.3,loss=0.1",
    )
    return FedAvg(model_fn, fed, cfg)


def main() -> None:
    fed = build_federation()

    # Reference: the run nothing ever interrupted.
    reference = make_algo(fed)
    full = reference.run()
    print(f"uninterrupted: {full.num_rounds} rounds, final acc {full.final_accuracy:.2%}")

    with tempfile.TemporaryDirectory() as ckpt_dir:
        # Process 1: checkpoints every round, "dies" after KILL_AT rounds.
        make_algo(fed).run(KILL_AT, checkpoint_dir=ckpt_dir)
        ckpt = load_run_checkpoint(run_checkpoint_path(ckpt_dir, "fedavg-seed7"))
        print(f"crash after round {ckpt.next_round}; checkpoint holds "
              f"{len(ckpt.history['rounds'])} rounds of history")

        # Process 2: a fresh object (as a restarted process would build)
        # resumes from the directory and runs to the original target.
        resumed_algo = make_algo(fed)
        resumed = resumed_algo.run(ROUNDS, checkpoint_dir=ckpt_dir, resume_from=True)

    # Bit-identical replay: same history fingerprint (timing-free by
    # construction), same per-round series, same final weights.
    assert resumed.fingerprint() == full.fingerprint(), "resumed history diverged"
    assert np.array_equal(resumed.accuracies, full.accuracies)
    assert np.array_equal(resumed.cum_bytes, full.cum_bytes)
    for k, v in reference.global_model.state_dict().items():
        assert np.array_equal(v, resumed_algo.global_model.state_dict()[k])
    print(f"resumed run:   {resumed.num_rounds} rounds, final acc "
          f"{resumed.final_accuracy:.2%} — identical to the uninterrupted run")
    print("failure mix:  ", full.total_failures())


if __name__ == "__main__":
    main()
