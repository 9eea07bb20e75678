"""Experiment persistence: run histories, model checkpoints and *resumable
run state* on disk.

Long FL sweeps (the `paper` scale runs for hours) need durable artifacts:

- :func:`save_history` / :func:`load_history` — a :class:`RunHistory` as
  JSON (the exact series the tables/figures consume);
- :func:`save_model` / :func:`load_model` — a module's state dict in the
  same versioned binary wire format the channel uses;
- :class:`RunCheckpoint` + :func:`save_run_checkpoint` /
  :func:`load_run_checkpoint` — the *complete* mid-schedule state of a run
  (global model, algorithm server state, comm-meter ledger, partial
  history, config fingerprint) so a crashed or killed run resumes
  bit-identically (``FLAlgorithm.run(resume_from=...)``).

Every write in this module is **atomic**: content goes to a same-directory
``*.tmp`` file first and is moved into place with ``os.replace``, so a
SIGKILL mid-write can never leave a half-written history or
checkpoint — the reader sees either the old version or the new one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import pickle
from typing import Mapping

import numpy as np

from repro.fl.history import RunHistory
from repro.nn.module import Module
from repro.nn.serialization import dumps_state_dict, loads_state_dict

__all__ = [
    "save_history",
    "load_history",
    "save_model",
    "load_model",
    "CheckpointError",
    "RunCheckpoint",
    "RUN_CHECKPOINT_VERSION",
    "save_run_checkpoint",
    "load_run_checkpoint",
    "run_checkpoint_path",
]


class CheckpointError(ValueError):
    """A run-checkpoint file is unreadable: wrong magic, unsupported
    version, or truncated/corrupted content.

    Subclasses :class:`ValueError` so pre-existing callers catching
    ``ValueError`` keep working; new code should catch this to distinguish
    "bad checkpoint file" from other value errors.
    """


# ---------------------------------------------------------------------- #
# atomic writes
# ---------------------------------------------------------------------- #


def _atomic_write_bytes(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` all-or-nothing.

    The bytes land in a unique sibling ``*.tmp`` file (same directory, so
    the final ``os.replace`` is an atomic same-filesystem rename) which is
    fsynced before the rename; a crash at any instant leaves ``path``
    either absent, fully old, or fully new — never truncated.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only survives if the replace failed


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------- #
# histories and weights
# ---------------------------------------------------------------------- #


def save_history(history: RunHistory, path: "str | pathlib.Path") -> pathlib.Path:
    """Write a run history as pretty-printed JSON (atomically)."""
    path = pathlib.Path(path)
    _atomic_write_text(path, json.dumps(history.to_dict(), indent=2))
    return path


def load_history(path: "str | pathlib.Path") -> RunHistory:
    """Reconstruct a :class:`RunHistory` written by :func:`save_history`."""
    return RunHistory.from_dict(json.loads(pathlib.Path(path).read_text()))


def save_model(model_or_state: "Module | Mapping[str, np.ndarray]", path) -> pathlib.Path:
    """Write a module's (or raw) state dict in the binary wire format
    (atomically)."""
    state = (
        model_or_state.state_dict()
        if isinstance(model_or_state, Module)
        else model_or_state
    )
    path = pathlib.Path(path)
    _atomic_write_bytes(path, dumps_state_dict(state))
    return path


def load_model(path, into: "Module | None" = None):
    """Read a state dict; if ``into`` is given, load it and return the module."""
    state = loads_state_dict(pathlib.Path(path).read_bytes())
    if into is None:
        return state
    into.load_state_dict(state)
    return into


# ---------------------------------------------------------------------- #
# resumable run checkpoints
# ---------------------------------------------------------------------- #

RUN_CHECKPOINT_VERSION = 1
_RUN_CHECKPOINT_MAGIC = b"RPCK"


@dataclasses.dataclass
class RunCheckpoint:
    """Everything needed to continue a run from the top of round
    ``next_round`` exactly as if it had never stopped.

    Because every stochastic stream in the system is pure in
    ``(seed, round, client)`` — client sampling, loader shuffles, fault
    plans, distillation orders — no RNG state needs to be captured: the
    snapshot is the *data* state only (models, optimizer moments, control
    variates, ledgers), and replay from it is bit-identical.

    Attributes
    ----------
    algorithm:
        ``FLAlgorithm.name`` of the writer (sanity-checked on resume).
    fingerprint:
        ``FLAlgorithm.config_fingerprint()`` of the writer; resuming with
        a different algorithm/model/config/federation raises.
    next_round:
        0-based index of the first round that has *not* run yet.
    global_state:
        The global model's state dict at the end of round ``next_round-1``.
    server_state:
        Algorithm-specific state from ``FLAlgorithm.server_state()``
        (SCAFFOLD controls, server-optimizer moments, on-device local
        models, ...). Opaque to this module; must be picklable.
    meter_state:
        The :class:`~repro.fl.comm.CommMeter` ledger (uplink/downlink
        per-client totals and the per-round byte series).
    history:
        ``RunHistory.to_dict()`` of the rounds completed so far.
    """

    algorithm: str
    fingerprint: str
    next_round: int
    global_state: Mapping[str, np.ndarray]
    server_state: dict
    meter_state: dict
    history: dict
    version: int = RUN_CHECKPOINT_VERSION


def run_checkpoint_path(directory: "str | pathlib.Path", name: str) -> pathlib.Path:
    """Canonical location of a named run checkpoint inside ``directory``."""
    if "/" in name or name.startswith("."):
        raise ValueError(f"invalid checkpoint name {name!r}")
    return pathlib.Path(directory) / f"{name}.ckpt"


def save_run_checkpoint(
    ckpt: RunCheckpoint, path: "str | pathlib.Path"
) -> pathlib.Path:
    """Persist a :class:`RunCheckpoint` (atomic; safe to overwrite the
    previous snapshot in place every ``checkpoint_every`` rounds)."""
    payload = _RUN_CHECKPOINT_MAGIC + pickle.dumps(
        dataclasses.asdict(ckpt), protocol=pickle.HIGHEST_PROTOCOL
    )
    path = pathlib.Path(path)
    _atomic_write_bytes(path, payload)
    return path


def load_run_checkpoint(path: "str | pathlib.Path") -> RunCheckpoint:
    """Read a checkpoint written by :func:`save_run_checkpoint`.

    Raises :class:`CheckpointError` on any unreadable file — wrong magic,
    truncated or bit-flipped pickle payload, malformed field structure, or
    an unsupported version — never a raw ``pickle``/``struct`` exception,
    so a crash-loop resume (``resume_from=True``) can report the corrupt
    file instead of dying on an opaque deserialization traceback.
    """
    payload = pathlib.Path(path).read_bytes()
    if payload[: len(_RUN_CHECKPOINT_MAGIC)] != _RUN_CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a repro run checkpoint (bad magic)")
    try:
        raw = pickle.loads(payload[len(_RUN_CHECKPOINT_MAGIC) :])
    except Exception as exc:
        raise CheckpointError(
            f"{path} is truncated or corrupted "
            f"(checkpoint payload failed to deserialize: {exc})"
        ) from exc
    if not isinstance(raw, dict):
        raise CheckpointError(
            f"{path} is corrupted (expected a checkpoint field mapping, "
            f"got {type(raw).__name__})"
        )
    version = raw.get("version")
    if version != RUN_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported run-checkpoint version {version!r} "
            f"(this build reads v{RUN_CHECKPOINT_VERSION})"
        )
    try:
        return RunCheckpoint(**raw)
    except TypeError as exc:
        raise CheckpointError(
            f"{path} is corrupted (unexpected checkpoint fields: {exc})"
        ) from exc
