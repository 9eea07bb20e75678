"""Reflection-based contract checks over the live algorithm registry.

Static rules can prove a file never *calls* the global RNG; they cannot
prove that FedKEMF's ``client_payload`` pickles, that SCAFFOLD's
``server_state`` survives a round trip through ``load_server_state``, or
that a config fingerprint really ignores execution-only knobs. This pass
imports the registry, instantiates every algorithm against a tiny
synthetic federation (4 clients, 8x8 single-channel images, a
quarter-width MLP — milliseconds, no training), and exercises exactly the
operations the runtime performs:

- RPL901: the downlink payload must pickle (parallel executors fork and
  ship it across a process boundary);
- RPL902: the algorithm object itself must pickle (the run-long worker
  pool is shipped a pickled round-start snapshot of the whole algorithm);
- RPL903: ``server_state`` → pickle → ``load_server_state`` →
  ``server_state`` must reproduce the original state (else checkpoints
  drift on resume);
- RPL904: ``config_fingerprint`` must ignore every knob the
  :class:`~repro.fl.config.FLConfig` table marks ``execution_only``
  (resume-anywhere is part of the checkpoint contract) and move with every
  other one (else a checkpoint resumes into a different trajectory);
- RPL905: a stateful :class:`~repro.fl.robust.RobustAggregator` (e.g.
  autoclip's running threshold) must ride through ``server_state()`` under
  the reserved ``"_defense"`` key and survive the
  ``load_server_state`` round trip — else a defended run resumes with an
  amnesiac defense and drifts.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import pickle
from typing import Any, Iterable, Iterator

import numpy as np

from repro.analysis.rules.base import Rule, SourceModule, Violation

__all__ = [
    "CONTRACT_RULES",
    "PayloadPicklable",
    "AlgorithmPicklable",
    "ServerStateRoundTrip",
    "FingerprintExecutionFree",
    "RobustStateRoundTrip",
    "algorithm_entries",
    "run_contract_checks",
    "disproven_by_live_round_trip",
]


def _class_location(cls: "type[Any]") -> tuple[str, int]:
    """Best-effort (repo-relative path, line) of an algorithm class."""
    try:
        path = inspect.getsourcefile(cls) or "<unknown>"
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        return "<unknown>", 1
    try:
        rel = pathlib.Path(path).resolve().relative_to(pathlib.Path.cwd())
        return rel.as_posix(), line
    except ValueError:
        return path, line


def _deep_equal(a: object, b: object) -> bool:
    """Structural equality that understands numpy arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_deep_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_deep_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _tiny_harness() -> "tuple[Any, Any, Any]":
    """A federation small enough that instantiating 10 algorithms is fast."""
    from repro.data.federated import build_federated_dataset
    from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
    from repro.fl.config import FLConfig
    from repro.nn.models import build_model

    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    fed = build_federated_dataset(
        world, num_clients=4, n_train=64, n_test=16, n_public=16, alpha=0.5, seed=0
    )
    model_fn = functools.partial(
        build_model,
        "mlp",
        num_classes=4,
        in_channels=1,
        image_size=8,
        width_mult=0.25,
        seed=1,
    )
    cfg = FLConfig(
        rounds=1, sample_ratio=0.5, local_epochs=1, batch_size=8, seed=0, distill_epochs=1
    )
    return fed, model_fn, cfg


def algorithm_entries(registry: Any = None) -> "list[tuple[str, type[Any]]]":
    """Registered (name, class) pairs, aliases deduplicated."""
    if registry is None:
        # Importing these modules populates the registry with the full set
        # (baselines + the paper algorithms).
        import repro.core.fedkd  # noqa: F401  (registers FedKD)
        import repro.core.fedkemf  # noqa: F401  (registers FedKEMF)
        import repro.fl.algorithms  # noqa: F401  (registers the baselines)
        from repro.fl.algorithms.base import ALGORITHM_REGISTRY

        registry = ALGORITHM_REGISTRY
    entries: "list[tuple[str, type[Any]]]" = []
    seen: set[int] = set()
    for name in registry:
        cls = registry.get(name)
        if id(cls) in seen:
            continue
        seen.add(id(cls))
        entries.append((name, cls))
    return entries


class ContractRule(Rule):
    kind = "contract"

    def run(self, name: str, cls: "type[Any]", algo: Any) -> Iterator[Violation]:
        raise NotImplementedError

    def check(self, module: SourceModule) -> Iterable[Violation]:  # pragma: no cover - contract rules
        return ()

    def fail(self, cls: "type[Any]", message: str) -> Violation:
        path, line = _class_location(cls)
        return Violation(path=path, line=line, col=0, code=self.code, message=message)


class PayloadPicklable(ContractRule):
    code = "RPL901"
    name = "payload-picklable"
    invariant = (
        "client_payload() output pickles — the parallel executors ship it "
        "across a process boundary"
    )

    def run(self, name: str, cls: "type[Any]", algo: Any) -> Iterator[Violation]:
        try:
            pickle.dumps(algo.client_payload(0, 0), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the lint
            yield self.fail(
                cls, f"{name}: client_payload(0, 0) does not pickle ({exc!r})"
            )


class AlgorithmPicklable(ContractRule):
    code = "RPL902"
    name = "algorithm-picklable"
    invariant = (
        "the algorithm object pickles — ParallelExecutor ships a pickled "
        "round-start snapshot of the whole algorithm to its run-long pool"
    )

    def run(self, name: str, cls: "type[Any]", algo: Any) -> Iterator[Violation]:
        try:
            pickle.dumps(algo, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001
            yield self.fail(
                cls,
                f"{name}: the algorithm instance does not pickle ({exc!r}); "
                "the pool executor refuses work that does not pickle",
            )


class ServerStateRoundTrip(ContractRule):
    code = "RPL903"
    name = "server-state-roundtrip"
    invariant = (
        "server_state() pickles and load_server_state(server_state()) "
        "reproduces it exactly — including the buffered-aggregation update "
        "buffer — the checkpoint/resume identity"
    )

    def run(self, name: str, cls: "type[Any]", algo: Any) -> Iterator[Violation]:
        try:
            state = algo.server_state()
            restored = pickle.loads(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
            algo.load_server_state(restored)
            state2 = algo.server_state()
        except Exception as exc:  # noqa: BLE001
            yield self.fail(
                cls, f"{name}: server_state round trip raised ({exc!r})"
            )
            return
        if not _deep_equal(state, state2):
            yield self.fail(
                cls,
                f"{name}: server_state() after load_server_state(server_state()) "
                "differs from the original — resumed runs will drift",
            )
            return
        yield from self._buffered_roundtrip(name, cls, algo)

    def _buffered_roundtrip(self, name: str, cls: "type[Any]", algo: Any) -> Iterator[Violation]:
        """Re-run the round trip with an armed update buffer.

        Every algorithm can run under the buffered server regime, so its
        checkpoint hooks must also carry the base class's buffer state
        (the reserved ``"_async_buffer"`` key). Arming a synthetic buffer
        catches overrides that rebuild the state dict without merging
        ``super().server_state()`` — the exact failure mode that loses
        in-flight updates on a mid-buffer resume.
        """
        from repro.runtime.async_server import BufferedAggregation, UpdateBuffer
        from repro.runtime.executors import ClientUpdate

        buf = UpdateBuffer(BufferedAggregation(buffer_size=2, staleness_alpha=0.5))
        buf.push(
            0,
            0,
            1.5,
            ClientUpdate(
                client_id=0,
                states={"state": algo.global_model.state_dict()},
                weight=1.0,
                steps=1,
            ),
        )
        buf.advance(2.0)
        original = algo._update_buffer
        algo._update_buffer = buf
        try:
            state = algo.server_state()
            if "_async_buffer" not in state:
                yield self.fail(
                    cls,
                    f"{name}: server_state() omits the '_async_buffer' key while "
                    "the buffered regime is active — the override likely rebuilds "
                    "the dict without merging super().server_state(); a mid-buffer "
                    "checkpoint loses every in-flight update",
                )
                return
            restored = pickle.loads(
                pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            )
            algo.load_server_state(restored)
            state2 = algo.server_state()
        except Exception as exc:  # noqa: BLE001
            yield self.fail(
                cls, f"{name}: buffered server_state round trip raised ({exc!r})"
            )
            return
        finally:
            algo._update_buffer = original
        if not _deep_equal(state, state2):
            yield self.fail(
                cls,
                f"{name}: buffered server_state does not survive the "
                "load_server_state round trip — mid-buffer resumes will drift",
            )


def _another_value(knob: Any, value: Any) -> Any:
    """A valid value of ``knob`` other than ``value``, from its declaration."""
    if knob.type is bool:
        return not value
    if knob.type is str:
        options = knob.choices or (knob.example, knob.default)
        return next(v for v in options if v != value)
    base = value if value is not None else knob.min or knob.above or 0
    return base / 2 if knob.max is not None else base + 1


class FingerprintExecutionFree(ContractRule):
    code = "RPL904"
    name = "fingerprint-execution-free"
    invariant = (
        "config_fingerprint() ignores exactly the knobs the FLConfig table "
        "marks execution_only, so a checkpoint resumes under any backend and "
        "never into a different trajectory"
    )

    def run(self, name: str, cls: "type[Any]", algo: Any) -> Iterator[Violation]:
        from repro.fl.config import FLConfig, knobs

        original_cfg = algo.cfg
        try:
            baseline = algo.config_fingerprint()
            for knob in knobs(FLConfig):
                flipped = _another_value(knob, getattr(original_cfg, knob.name))
                algo.cfg = original_cfg.with_overrides(**{knob.name: flipped})
                moved = algo.config_fingerprint() != baseline
                if moved and knob.execution_only:
                    yield self.fail(
                        cls,
                        f"{name}: config_fingerprint changes with the execution-only "
                        f"knob {knob.name!r}; checkpoints from this algorithm cannot "
                        "resume on a different backend",
                    )
                elif not moved and not knob.execution_only:
                    yield self.fail(
                        cls,
                        f"{name}: config_fingerprint ignores {knob.name!r}, which "
                        "can change the trajectory; a checkpoint would resume "
                        "into a different run",
                    )
        except Exception as exc:  # noqa: BLE001
            yield self.fail(cls, f"{name}: config_fingerprint raised ({exc!r})")
        finally:
            algo.cfg = original_cfg


class RobustStateRoundTrip(ContractRule):
    code = "RPL905"
    name = "robust-defense-state-roundtrip"
    invariant = (
        "a stateful RobustAggregator rides through server_state() under "
        "the '_defense' key and survives the load_server_state round trip "
        "— defended runs must resume bit-identically"
    )

    def run(self, name: str, cls: "type[Any]", algo: Any) -> Iterator[Violation]:
        from repro.fl.robust import default_defenses

        original = algo.defense
        try:
            for defense in default_defenses():
                if not defense.stateful:
                    continue
                algo.defense = defense
                try:
                    # Arm the defense with one tiny combine so its mutable
                    # state is non-trivial (autoclip's threshold stays None
                    # until it has seen a round of norms).
                    ref = algo.global_model.state_dict()
                    member = {k: np.asarray(v) + 0.125 for k, v in ref.items()}
                    defense.combine([member, ref], [1.0, 1.0], reference=ref)
                    armed = defense.state()
                    state = algo.server_state()
                    if "_defense" not in state:
                        yield self.fail(
                            cls,
                            f"{name}: server_state() omits the '_defense' key while a "
                            f"stateful defense ({type(defense).__name__}) is active — "
                            "the override likely rebuilds the dict without merging "
                            "super().server_state(); a defended run resumes with an "
                            "amnesiac defense and drifts",
                        )
                        continue
                    restored = pickle.loads(
                        pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
                    )
                    # Restore into a *fresh* (amnesiac) defense instance, the
                    # way a resumed process starts, and compare states.
                    algo.defense = type(defense)()
                    algo.load_server_state(restored)
                    if not _deep_equal(algo.defense.state(), armed):
                        yield self.fail(
                            cls,
                            f"{name}: a stateful defense "
                            f"({type(defense).__name__}) does not survive the "
                            "server_state/load_server_state round trip — "
                            "defended resumes will drift",
                        )
                except Exception as exc:  # noqa: BLE001
                    yield self.fail(
                        cls,
                        f"{name}: defense state round trip raised ({exc!r})",
                    )
        finally:
            algo.defense = original


CONTRACT_RULES: tuple[ContractRule, ...] = (
    PayloadPicklable(),
    AlgorithmPicklable(),
    ServerStateRoundTrip(),
    FingerprintExecutionFree(),
    RobustStateRoundTrip(),
)


def _dedupe_key(name: str, cls: "type[Any]", violation: Violation) -> tuple[str, int, str]:
    """Identity of a contract finding, independent of the registry name.

    A class registered under two names (alias registration) trips the same
    contract twice; the only difference between the findings is the
    ``"{name}: "`` message prefix. Stripping it makes the duplicates
    collapse onto ``(code, class, complaint)``.
    """
    message = violation.message
    prefix = f"{name}: "
    if message.startswith(prefix):
        message = message[len(prefix) :]
    return (violation.code, id(cls), message)


def run_contract_checks(
    entries: "list[tuple[str, type[Any]]] | None" = None,
    rules: "tuple[ContractRule, ...]" = CONTRACT_RULES,
) -> list[Violation]:
    """Instantiate every registered algorithm once and run all contracts."""
    if entries is None:
        entries = algorithm_entries()
    fed, model_fn, cfg = _tiny_harness()
    violations: list[Violation] = []
    seen: set[tuple[str, int, str]] = set()

    def _add(name: str, cls: "type[Any]", found: Iterable[Violation]) -> None:
        for violation in found:
            key = _dedupe_key(name, cls, violation)
            if key not in seen:
                seen.add(key)
                violations.append(violation)

    for name, cls in entries:
        try:
            algo = cls(model_fn, fed, cfg)
        except Exception as exc:  # noqa: BLE001
            path, line = _class_location(cls)
            _add(
                name,
                cls,
                [
                    Violation(
                        path=path,
                        line=line,
                        col=0,
                        code="RPL901",
                        message=(
                            f"{name}: could not instantiate with the standard "
                            f"(model_fn, fed, config) signature ({exc!r}); the "
                            "experiment runner and executors rely on it"
                        ),
                    )
                ],
            )
            continue
        for rule in rules:
            _add(name, cls, rule.run(name, cls, algo))
    return violations


class _Probe:
    """Sentinel planted on an attr to see whether server_state() reads it.

    Deliberately inert: any method call or protocol use inside
    ``server_state`` raises, which is itself proof the attr is captured.
    """

    def __eq__(self, other: object) -> bool:  # pragma: no cover - identity only
        return self is other

    def __hash__(self) -> int:  # pragma: no cover
        return id(self)


def disproven_by_live_round_trip(violations: "list[Violation]") -> set[Violation]:
    """RPL704 findings the *live* server_state round trip contradicts.

    The static pass reports attrs written on aggregate paths that it
    cannot see in ``server_state()``/``load_server_state()`` — but capture
    can be dynamic (a loop over ``vars(self)``, a helper the call graph
    lost). For findings naming a registered algorithm class, plant a
    sentinel on the attr and re-call ``server_state()``: if the output
    changes (or reading the sentinel raises), the attr demonstrably rides
    the round trip and the finding is dropped.
    """
    out: set[Violation] = set()
    if not violations:
        return out
    try:
        by_name = {cls.__name__: cls for _, cls in algorithm_entries()}
        harness = _tiny_harness()
    except Exception:  # registry not importable: keep the static findings
        return out
    fed, model_fn, cfg = harness
    instances: "dict[str, Any]" = {}
    for violation in violations:
        if len(violation.data) != 2:
            continue
        cls_name, attr = violation.data
        cls = by_name.get(cls_name)
        if cls is None:
            continue
        algo = instances.get(cls_name)
        if algo is None:
            try:
                algo = cls(model_fn, fed, cfg)
            except Exception:  # noqa: BLE001 - RPL901 reports this elsewhere
                continue
            instances[cls_name] = algo
        try:
            before = algo.server_state()
        except Exception:  # noqa: BLE001
            continue
        had_attr = hasattr(algo, attr)
        original = getattr(algo, attr, None)
        try:
            setattr(algo, attr, _Probe())
            try:
                after = algo.server_state()
            except Exception:  # noqa: BLE001 - server_state read the probe
                out.add(violation)
                continue
            if not _deep_equal(before, after):
                out.add(violation)
        finally:
            if had_attr:
                setattr(algo, attr, original)
            elif hasattr(algo, attr):
                delattr(algo, attr)
    return out
