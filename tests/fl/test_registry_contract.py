"""Algorithm-registry contract: every entry is constructible the same way,
and every entry keeps the five properties the runtime relies on.

The experiment runner instantiates algorithms generically; the class
below pins the constructor contract so a future algorithm can't silently
break the CLI and bench harness. The ``check_*`` functions below it
instantiate every registered algorithm against a tiny federation and
exercise exactly what the runtime does with it: the pool executor ships
the downlink payload and a pickled round-start snapshot of the algorithm;
a checkpoint must resume bit-identically, so ``server_state`` must
round-trip (bare, with an armed update buffer, and with a stateful defense
riding in it) and the config fingerprint must ignore exactly the
``execution_only`` knobs. Each check raises ``AssertionError`` naming
what broke, and each is proven live by a deliberately broken subclass.
"""

import functools
import inspect
import pickle

import numpy as np
import pytest

from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms import ALGORITHM_REGISTRY
from repro.fl.algorithms.base import FLAlgorithm
from repro.fl.algorithms.fedavg import FedAvg
from repro.fl.config import FLConfig, knobs
from repro.fl.robust import default_defenses
from repro.nn.models import build_model
from repro.runtime.async_server import BufferedAggregation, UpdateBuffer
from repro.runtime.executors import ClientUpdate

# algorithms that accept (and require routing of) per-client local models
KNOWLEDGE_STYLE = {"fedkemf", "fedkd"}


class TestRegistryContract:
    def test_expected_algorithms_present(self):
        expected = {
            "fedavg", "fedprox", "fednova", "scaffold", "feddf",
            "fedmd", "fedkemf", "fedkd", "fedavgm", "fedadam",
        }
        assert expected <= set(ALGORITHM_REGISTRY.names())

    @pytest.mark.parametrize("name", [
        "fedavg", "fedprox", "fednova", "scaffold", "feddf",
        "fedmd", "fedkemf", "fedkd", "fedavgm", "fedadam",
    ])
    def test_is_flalgorithm_subclass(self, name):
        cls = ALGORITHM_REGISTRY.get(name)
        assert issubclass(cls, FLAlgorithm)

    @pytest.mark.parametrize("name", [
        "fedavg", "fedprox", "fednova", "scaffold", "feddf",
        "fedmd", "fedkemf", "fedkd", "fedavgm", "fedadam",
    ])
    def test_constructor_signature(self, name):
        """(model_fn, fed, config) positional prefix must be accepted."""
        cls = ALGORITHM_REGISTRY.get(name)
        params = list(inspect.signature(cls.__init__).parameters)
        assert params[1:4] == ["model_fn", "fed", "config"], f"{name}: {params}"

    @pytest.mark.parametrize("name", sorted(KNOWLEDGE_STYLE))
    def test_knowledge_style_accepts_local_models(self, name):
        cls = ALGORITHM_REGISTRY.get(name)
        params = inspect.signature(cls.__init__).parameters
        assert "local_model_fns" in params

    def test_display_names_unique(self):
        names = [ALGORITHM_REGISTRY.get(n).name for n in ALGORITHM_REGISTRY.names()]
        # aliases may repeat, but distinct classes must have distinct labels
        classes = {ALGORITHM_REGISTRY.get(n) for n in ALGORITHM_REGISTRY.names()}
        labels = [c.name for c in classes]
        assert len(labels) == len(set(labels))


# ---------------------------------------------------------------------- #
# runtime contracts
# ---------------------------------------------------------------------- #


@functools.lru_cache(maxsize=None)
def _harness():
    """4 clients, 8x8 single-channel images, a quarter-width MLP."""
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    fed = build_federated_dataset(
        SyntheticImageDataset(spec, seed=0),
        num_clients=4, n_train=64, n_test=16, n_public=16, alpha=0.5, seed=0,
    )
    model_fn = functools.partial(
        build_model, "mlp", num_classes=4, in_channels=1, image_size=8,
        width_mult=0.25, seed=1,
    )
    cfg = FLConfig(
        rounds=1, sample_ratio=0.5, local_epochs=1, batch_size=8, seed=0, distill_epochs=1
    )
    return fed, model_fn, cfg


def _build(cls):
    fed, model_fn, cfg = _harness()
    return cls(model_fn, fed, cfg)


def _pickled(obj, what):
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise AssertionError(f"{what} does not pickle ({exc!r})") from exc


def _same(a, b):
    """Structural equality that compares numpy arrays by dtype and value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _reloaded(algo, state):
    """``load_server_state`` of ``state`` after a pickle round trip."""
    algo.load_server_state(pickle.loads(_pickled(state, "server_state()")))
    return algo.server_state()


def check_payload_pickles(algo):
    _pickled(algo.client_payload(0, 0), "client_payload(0, 0)")


def check_algorithm_pickles(algo):
    _pickled(algo, "the algorithm object")  # the pool ships a pickled snapshot


def check_server_state_round_trip(algo):
    state = algo.server_state()
    assert _same(_reloaded(algo, state), state), (
        "server_state() after load_server_state(server_state()) differs; resumes drift"
    )
    # Every algorithm can run under the buffered regime, so its hooks must
    # carry the base class's update buffer too.
    buf = UpdateBuffer(BufferedAggregation(buffer_size=2, staleness_alpha=0.5))
    update = ClientUpdate(
        client_id=0, states={"state": algo.global_model.state_dict()}, weight=1.0, steps=1
    )
    buf.push(0, 0, 1.5, update)
    buf.advance(2.0)
    algo._update_buffer = buf
    state = algo.server_state()
    assert "_async_buffer" in state, (
        "server_state() omits '_async_buffer' under the buffered regime; "
        "the override does not merge super().server_state()"
    )
    assert _same(_reloaded(algo, state), state), (
        "buffered server_state does not survive the round trip; mid-buffer resumes drift"
    )


def _another_value(knob, value):
    """A valid value of ``knob`` other than ``value``, from its declaration."""
    if knob.type is bool:
        return not value
    if knob.type is str:
        return next(v for v in knob.choices or (knob.example, knob.default) if v != value)
    base = value if value is not None else knob.min or knob.above or 0
    return base / 2 if knob.max is not None else base + 1


def check_fingerprint_execution_free(algo):
    cfg, fingerprint = algo.cfg, algo.config_fingerprint()
    for knob in knobs(FLConfig):
        flipped = _another_value(knob, getattr(cfg, knob.name))
        algo.cfg = cfg.with_overrides(**{knob.name: flipped})
        moved = algo.config_fingerprint() != fingerprint
        assert moved != knob.execution_only, (
            f"config_fingerprint moves with the execution-only knob {knob.name!r}"
            if moved else
            f"config_fingerprint ignores {knob.name!r}, which shapes the trajectory"
        )


def check_defense_state_round_trip(algo):
    ref = algo.global_model.state_dict()
    member = {k: np.asarray(v) + 0.125 for k, v in ref.items()}
    for defense in (d for d in default_defenses() if d.stateful):
        name = type(defense).__name__
        algo.defense = defense
        # One combine arms the state (autoclip's threshold starts as None).
        defense.combine([member, ref], [1.0, 1.0], reference=ref)
        armed = defense.state()
        state = algo.server_state()
        assert "_defense" in state, f"server_state() omits '_defense' while {name} is active"
        algo.defense = type(defense)()  # a resumed process starts amnesiac
        _reloaded(algo, state)
        assert _same(algo.defense.state(), armed), (
            f"{name} state does not survive the server_state round trip"
        )


CHECKS = [
    check_payload_pickles,
    check_algorithm_pickles,
    check_server_state_round_trip,
    check_fingerprint_execution_free,
    check_defense_state_round_trip,
]


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__[len("check_"):])
@pytest.mark.parametrize("name", ALGORITHM_REGISTRY.names())
def test_registry_entry_keeps_contract(name, check):
    check(_build(ALGORITHM_REGISTRY.get(name)))


# -- broken subclasses: each must fail the check for its property -------- #


class _UnpicklablePayload(FedAvg):
    def client_payload(self, round_idx, cid):
        payload = super().client_payload(round_idx, cid)
        payload["hook"] = lambda x: x  # lambdas do not pickle
        return payload


class _UnpicklableAlgorithm(FedAvg):
    def setup(self):
        super().setup()
        self._callback = lambda x: x


class _LossyServerState(FedAvg):
    def setup(self):
        super().setup()
        self._loads = 0

    def load_server_state(self, state):
        super().load_server_state(state)
        self._loads += 1

    def server_state(self):
        state = super().server_state()
        state["loads"] = self._loads  # round trip changes the state
        return state


class _ExecutionTaintedFingerprint(FedAvg):
    def config_fingerprint(self):
        return f"{super().config_fingerprint()}-w{self.cfg.workers}"


class _ResidencyTaintedFingerprint(FedAvg):
    def config_fingerprint(self):
        return f"{super().config_fingerprint()}-r{self.cfg.state_residency}"


class _CohortBlindFingerprint(FedAvg):
    """Drops a trajectory-shaping knob from the fingerprint."""

    def config_fingerprint(self):
        cfg = self.cfg
        self.cfg = cfg.with_overrides(max_cohort=None)
        try:
            return super().config_fingerprint()
        finally:
            self.cfg = cfg


class _DecoratedFingerprint(FedAvg):
    """The good twin: reshapes the fingerprint without reading any knob."""

    def config_fingerprint(self):
        return f"v2-{super().config_fingerprint()}"


class _DefenseDroppingServerState(FedAvg):
    """A resumed autoclip run would restart with a cold threshold."""

    def server_state(self):
        state = super().server_state()
        state.pop("_defense", None)
        return state


class _AmnesiacDefenseLoad(FedAvg):
    """Writes the defense state but never restores it on load."""

    def load_server_state(self, state):
        state = dict(state)
        state.pop("_defense", None)
        super().load_server_state(state)


BROKEN = [
    (_UnpicklablePayload, check_payload_pickles, r"client_payload\(0, 0\) does not pickle"),
    (_UnpicklableAlgorithm, check_algorithm_pickles, "algorithm object"),
    (_LossyServerState, check_server_state_round_trip, "differs"),
    (_ExecutionTaintedFingerprint, check_fingerprint_execution_free, "knob 'workers'"),
    (_ResidencyTaintedFingerprint, check_fingerprint_execution_free, "knob 'state_residency'"),
    (_CohortBlindFingerprint, check_fingerprint_execution_free, "ignores 'max_cohort'"),
    (_DefenseDroppingServerState, check_defense_state_round_trip, "omits '_defense'"),
    (_AmnesiacDefenseLoad, check_defense_state_round_trip, "does not survive"),
]


@pytest.mark.parametrize(
    "cls, check, message", BROKEN, ids=[cls.__name__.strip("_") for cls, _, _ in BROKEN]
)
def test_broken_subclass_fails_its_check(cls, check, message):
    with pytest.raises(AssertionError, match=message):
        check(_build(cls))


def test_decorated_fingerprint_passes():
    check_fingerprint_execution_free(_build(_DecoratedFingerprint))


def test_registry_contains_the_paper_algorithms():
    names = set(ALGORITHM_REGISTRY.names())
    assert {"fedavg", "fedkemf", "fedkd", "fedmd", "scaffold"} <= names
