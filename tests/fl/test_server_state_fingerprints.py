"""Parent-captured server-state trajectories.

The literals below were recorded on the micro MLP fixture at the commit
*before* the robust policies, the payload attacks and the FedOpt /
SCAFFOLD / FedNova server steps moved onto flat state buffers. They pin,
bit for bit, every server-side state computation the other literal suites
leave unanchored: FedAvgM's velocity, FedAdam's moments, FedNova's
normalised delta, SCAFFOLD's controls, each non-mean defense under a
payload-attack mix, the delta payloads SCAFFOLD and FedNova pass through a
defense, FedMD's corrupted logits, and the server state a resumed run
reloads from a checkpoint.

Each cell is ``(history fingerprint, global-model SHA-256, server-state
SHA-256)``; a literal that moves means a trajectory moved.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
from collections import OrderedDict

import numpy as np
import pytest

from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms import ALGORITHM_REGISTRY
from repro.fl.algorithms.base import FLConfig
from repro.nn.models import build_model

ROUNDS = 4
RESUME_AT = 2

# every payload attack that transforms the weights payload; the seed below
# assigns each of them to at least one (round, client) pair
ATTACKS = "signflip=0.15,scale=10@0.15,noise=0.5@0.15,freerider=0.15"
FULL = dict(sample_ratio=1.0, faults=ATTACKS)

CELLS = {
    "fedavgm": ("fedavgm", {}),
    "fedadam": ("fedadam", {}),
    "fednova": ("fednova", {}),
    "fedavg-clip": ("fedavg", dict(defense="clip=1.0", **FULL)),
    "fedavg-autoclip": ("fedavg", dict(defense="autoclip", **FULL)),
    "fedavg-trimmed": ("fedavg", dict(defense="trimmed=0.2", **FULL)),
    "fedavg-median": ("fedavg", dict(defense="median", **FULL)),
    "fedavg-krum": ("fedavg", dict(defense="krum=1", **FULL)),
    "scaffold-trimmed": ("scaffold", dict(defense="trimmed=0.2", **FULL)),
    "fednova-trimmed": ("fednova", dict(defense="trimmed=0.2", **FULL)),
    "fedmd-logitcorrupt": ("fedmd", dict(sample_ratio=1.0, faults="logitcorrupt=0.3")),
    "scaffold": ("scaffold", {}),
}

# cell -> (history fingerprint, global-model SHA-256, server-state SHA-256)
PARENT = {
    "fedadam": (
        "9b3890ace1eeb8ee",
        "10baae7b10af17677d31a134914e6d12277ec601448c8d3167362a8b59be216e",
        "e5fe5d65b5e586b4827f9b6629a8c57e8969d121aef89c8487a2b9ee1e7d9054",
    ),
    "fedavg-autoclip": (
        "8b808f35b664cb20",
        "d21fcdb97deddb91c4575113861ad29091bfbba061355323c67c78d956e2f8bc",
        "ad47f432d79e09aae2ab6be2f922cadc626224ac07c5de3ee01d3bdb555ef4ef",
    ),
    "fedavg-clip": (
        "365f6dba464bfe65",
        "a9313e2e6c73a593728423fbbbc07c4d22ba8da2a6b9c976b5f52bb481a546c3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fedavg-krum": (
        "8d8aabe67771ae5f",
        "32b15962a0fb65a487e10c0891e0ccf0eb7fb4725df3d978653310e3b1e455ca",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fedavg-median": (
        "befd1a54df8e4753",
        "1cb607239987d904709c0f989952661821bf09b91df9676212885f1cf3ccdcf5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fedavg-trimmed": (
        "382c7738f1f35563",
        "f3790cc509d26e820b585eaea7fb1693a9238701be3868c7e91e8a748f34f8af",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fedavgm": (
        "e10c90d0bf15e32a",
        "567ab933bc845633d6c1dca775630de438603a77ebb0af9480e783a6e2237efb",
        "a410767f77f4bf140930d01fc261c9e6ca6a9d7891d7a68dd3420a8110bfeee9",
    ),
    "fedmd-logitcorrupt": (
        "05dcc25d4d1847eb",
        "4bdb3734aebe0949d3e0018bc59e7b813cba1a5215a4237825926f4f8f678fee",
        "b63c7ad71904506fe5f88ab88f2c5859487b985ec68dbedd176cdea7f35a9ee9",
    ),
    "fednova": (
        "6af6edad59c04769",
        "44dac58265405375c776dcb8eddee8b490394ed24370c5dbef2032200d2fe57a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fednova-trimmed": (
        "2f85e0ec50a29b9e",
        "6667e7d97c75e444274880ff701574916fb328e85e7ad3c89f9aa725b899199d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "scaffold": (
        "f16a21a022c4b343",
        "d17d4ee225a6287f9d6f736981a8a7b2bf92bbdd696ca98109412973660e931b",
        "8245d8350479da085c6e72cef41ea1cc3e9c3f068a8762b47ec2d8825af2c916",
    ),
    "scaffold-trimmed": (
        "85e2df18f5f6a895",
        "90289a90be11adf114898292e29f6ff7127f727db33aad162a23c179037b5749",
        "935204ef3266d35cd10ada6b08a908bd439937a63a84d3433daa08d78a9f4c6f",
    ),
}


@pytest.fixture(scope="module")
def fed():
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    return build_federated_dataset(
        world, num_clients=6, n_train=240, n_test=60, n_public=60, alpha=0.5, seed=0
    )


@pytest.fixture(scope="module")
def model_fn():
    return functools.partial(
        build_model, "mlp", num_classes=4, in_channels=1, image_size=8,
        width_mult=0.25, seed=1,
    )


def make_cfg(**overrides) -> FLConfig:
    base = dict(
        rounds=ROUNDS, sample_ratio=0.5, local_epochs=1, batch_size=16,
        seed=2, distill_epochs=1,
    )
    base.update(overrides)
    return FLConfig(**base)


def _digest(digest, value) -> None:
    """Feed a server-state value into ``digest``: mappings in key order,
    arrays by dtype, shape and bytes, scalars by repr."""
    if isinstance(value, dict) or hasattr(value, "keys"):
        for key in value:
            digest.update(repr(key).encode())
            _digest(digest, value[key])
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _digest(digest, item)
    else:
        digest.update(repr(value).encode())


def signature(algo, history) -> "tuple[str, str, str]":
    model = hashlib.sha256()
    for arr in algo.global_model.state_dict().values():
        model.update(np.ascontiguousarray(arr).tobytes())
    server = hashlib.sha256()
    _digest(server, algo.server_state())
    return history.fingerprint(), model.hexdigest(), server.hexdigest()


class TestParentCapturedServerStateFingerprints:
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_trajectory_unmoved(self, cell, fed, model_fn):
        name, overrides = CELLS[cell]
        algo = ALGORITHM_REGISTRY.get(name)(model_fn, fed, make_cfg(**overrides))
        history = algo.run()
        assert signature(algo, history) == PARENT[cell]

    def test_attack_mix_exercises_every_weights_attack(self, fed, model_fn):
        algo = ALGORITHM_REGISTRY.get("fedavg")(model_fn, fed, make_cfg(**FULL))
        roles = {
            algo.runtime.attack_role(r, c)
            for r in range(ROUNDS)
            for c in range(fed.num_clients)
        }
        assert {"signflip", "scale", "noise", "freerider"} <= roles

    @pytest.mark.parametrize(
        "cell, residency", [("fedadam", None), ("scaffold", 1)]
    )
    def test_resumed_run_unmoved(self, cell, residency, fed, model_fn, tmp_path):
        """A run checkpointed mid-schedule reloads its server state (the
        optimizer moments, the controls — spilled to disk with a residency
        of one) as plain mappings and must land on the straight run's
        literal."""
        name, overrides = CELLS[cell]
        cfg = make_cfg(state_residency=residency, **overrides)
        cls = ALGORITHM_REGISTRY.get(name)
        cls(model_fn, fed, cfg).run(RESUME_AT, checkpoint_dir=tmp_path)
        resumed = cls(model_fn, fed, cfg)
        history = resumed.run(ROUNDS, checkpoint_dir=tmp_path, resume_from=True)
        assert signature(resumed, history) == PARENT[cell]

    @pytest.mark.parametrize(
        "name, keys",
        [("fedavgm", ["velocity"]), ("fedadam", ["m", "v"]), ("scaffold", ["server_control"])],
    )
    def test_server_state_pickles_as_plain_mappings(self, name, keys, fed, model_fn):
        algo = ALGORITHM_REGISTRY.get(name)(model_fn, fed, make_cfg(rounds=1))
        algo.run()
        state = pickle.loads(pickle.dumps(algo.server_state()))
        params = [n for n, _ in algo.global_model.named_parameters()]
        mappings = [state[k] for k in keys]
        if name == "scaffold":
            assert state["client_controls"]
            mappings += list(state["client_controls"].values())
        for mapping in mappings:
            assert type(mapping) is OrderedDict and list(mapping) == params
            assert all(a.dtype == np.float64 for a in mapping.values())
