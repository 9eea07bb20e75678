#!/usr/bin/env python3
"""Extending the framework: write your own FL algorithm in ~20 lines.

Implements "FedEMA" — FedAvg with a server-side exponential moving average —
as a worked example of the :class:`repro.fl.FLAlgorithm` extension point:
subclass and implement the ``aggregate`` hook. The base class's one round
loop supplies the rest: sampling, byte metering, fault injection, the
executors, robust-aggregation defenses, the buffered server regime,
evaluation and history. The example checks that a FedEMA run under
injected dropout records its dropouts, that the process pool replays the
serial run bit for bit, and that a run checkpointed at round 5 and
resumed replays the straight run (state a subclass keeps outside
``server_state()`` would fail this).

Run:  python examples/custom_algorithm.py
"""

import dataclasses
import functools
import tempfile

import numpy as np

from repro.data import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl import FedAvg, FLConfig
from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm
from repro.nn.models import build_model
from repro.runtime.executors import ClientUpdate


class FedEMA(FLAlgorithm):
    """FedAvg with a momentum server: x ← (1−β)·x + β·avg(clients).

    β = 1 recovers exact FedAvg; smaller β damps round-to-round noise from
    small client samples (a cheap stabilizer under non-IID sampling).
    """

    name = "FedEMA"
    beta = 0.5

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        global_state = self.global_model.state_dict()
        # average_states, or the configured robust defense over the same
        # wire-decoded client states
        avg = self._combine_states(
            [u.received["state"] for u in updates],
            [u.weight for u in updates],
            reference=global_state,
        )
        blended = {
            k: ((1 - self.beta) * global_state[k].astype(np.float64) + self.beta * avg[k])
            .astype(global_state[k].dtype)
            for k in avg
        }
        self.global_model.load_state_dict(blended)


# registering makes the new algorithm available to the experiment runner
if "fedema" not in ALGORITHM_REGISTRY:
    ALGORITHM_REGISTRY.add("fedema", FedEMA)


def main() -> None:
    world = SyntheticImageDataset(
        SyntheticSpec(num_classes=10, channels=3, image_size=8, noise_std=0.25), seed=0
    )
    fed = build_federated_dataset(
        world, num_clients=8, n_train=800, n_test=200, n_public=200, alpha=0.3, seed=0
    )
    cfg = FLConfig(rounds=10, sample_ratio=0.4, local_epochs=2, batch_size=20, lr=0.02, seed=0)
    # a partial of a module-level function: the process pool ships the
    # algorithm, factory included, to its workers, and a lambda does not pickle
    model_fn = functools.partial(
        build_model, "cnn-2", in_channels=3, image_size=8, width_mult=0.25, seed=1
    )

    h_avg = FedAvg(model_fn, fed, cfg).run()
    h_ema = FedEMA(model_fn, fed, cfg).run()

    print("round  FedAvg    FedEMA")
    for a, e in zip(h_avg.records, h_ema.records):
        print(f"{a.round_idx:5d}  {a.accuracy:7.2%}  {e.accuracy:7.2%}")
    print(f"\nsame wire cost ({h_avg.total_bytes == h_ema.total_bytes}), different server update.")

    # The runtime axes come with the round loop: injected dropout reaches
    # FedEMA exactly as it reaches FedAvg.
    faulty_cfg = dataclasses.replace(cfg, faults="dropout=0.3", executor="serial")
    faulty = FedEMA(model_fn, fed, faulty_cfg).run()
    failures = faulty.total_failures()
    assert failures.get("dropout", 0) > 0, failures
    print(f"FedEMA under faults='dropout=0.3' recorded failures {failures}.")

    # ... and so do the executors: the pool replays the serial run bit for bit.
    pooled = FedEMA(model_fn, fed, dataclasses.replace(faulty_cfg, workers=2, executor="parallel"))
    try:
        fingerprint = pooled.run().fingerprint()
    finally:
        pooled.runtime.executor.close()
    assert pooled.runtime.executor.last_round_mode == "shipped"
    assert fingerprint == faulty.fingerprint(), (fingerprint, faulty.fingerprint())
    print(f"The pool (workers=2) replays the serial run: fingerprint {fingerprint}.")

    # ... and so does checkpoint/resume: a run killed after round 5 and
    # resumed from its checkpoint replays the straight run.
    with tempfile.TemporaryDirectory() as ckpt_dir:
        FedEMA(model_fn, fed, faulty_cfg).run(rounds=5, checkpoint_dir=ckpt_dir)
        resumed = FedEMA(model_fn, fed, faulty_cfg).run(checkpoint_dir=ckpt_dir, resume_from=True)
    assert resumed.fingerprint() == faulty.fingerprint(), (resumed.fingerprint(), faulty.fingerprint())
    print(f"Checkpointed at round 5 and resumed, FedEMA replays the straight run: {resumed.fingerprint()}.")


if __name__ == "__main__":
    main()
