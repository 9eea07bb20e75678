"""Per-client algorithm state at population scale.

Cross-device algorithms keep device-resident state — SCAFFOLD's control
variates, FedKEMF/FedMD's persistent local models. Stored eagerly (a dict
or list over *all* clients) that state is O(population), which forbids
million-client federations even though only the sampled cohort is ever
touched. This module provides the containers that make per-client state
O(touched):

- :class:`ClientStateStore` — a mapping ``client id → state blob`` that
  keeps at most ``resident_limit`` entries in RAM and spills the
  least-recently-used remainder to disk (pickle files in a private
  temporary directory). ``resident_limit=None`` (the default) is fully
  resident and behaves exactly like a dict.
- :class:`ClientModelBank` — a lazy sequence of per-client models:
  ``bank[cid]`` constructs from the client's model fn on first touch,
  keeps at most ``resident_limit`` live modules, and parks evicted
  modules' state dicts in a :class:`ClientStateStore`. Construction is
  deterministic, so an untouched client's model is exactly its fresh
  initialization — banks only need to persist *touched* state.
- :class:`LazyFactoryBank` — a lazy sequence over a pure ``factory(cid)``
  (trainer banks): cached on touch, droppable at will, rebuilt bitwise.
- :func:`client_model_fns` — the one reading of an algorithm's per-client
  model-builder argument, as the list a :class:`ClientModelBank` takes.

Spill files are scratch, not durability: checkpoints go through
``export()``/``load()`` by value (the checkpoint layer owns atomicity).
Eviction and spilling never change trajectories — state round-trips by
value, and all iteration orders are sorted by client id.
"""

from __future__ import annotations

import pickle
import tempfile
from collections import OrderedDict
from collections.abc import Mapping, MutableMapping
from pathlib import Path
from typing import Callable, Sequence

from repro.fl.checkpoint import CheckpointError

__all__ = ["ClientStateStore", "ClientModelBank", "LazyFactoryBank", "client_model_fns"]


class ClientStateStore(MutableMapping):
    """Mapping over per-client state with LRU spill-to-disk.

    Parameters
    ----------
    resident_limit:
        Maximum entries held in RAM; the least-recently-used overflow is
        pickled to disk. ``None`` = unbounded (no spilling ever).
    spill_dir:
        Directory for spill files. Default: a private temporary directory,
        created lazily on first spill and removed when the store is
        garbage-collected.
    """

    def __init__(
        self, resident_limit: int | None = None, spill_dir: "str | Path | None" = None
    ) -> None:
        if resident_limit is not None and resident_limit < 1:
            raise ValueError(f"resident_limit must be >= 1; got {resident_limit}")
        self.resident_limit = resident_limit
        self._resident: "OrderedDict[int, object]" = OrderedDict()
        self._spilled: "dict[int, Path]" = {}
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._tmpdir: "tempfile.TemporaryDirectory | None" = None

    # -- spill machinery ------------------------------------------------ #

    def _spill_root(self) -> Path:
        if self._spill_dir is None:
            if self._tmpdir is None:
                self._tmpdir = tempfile.TemporaryDirectory(prefix="client-state-")
            return Path(self._tmpdir.name)
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        return self._spill_dir

    def _spill_one(self) -> None:
        cid, value = self._resident.popitem(last=False)  # least recently used
        path = self._spill_root() / f"client-{cid}.pkl"
        path.write_bytes(pickle.dumps(value))
        self._spilled[cid] = path

    def _enforce(self) -> None:
        if self.resident_limit is None:
            return
        while len(self._resident) > self.resident_limit:
            self._spill_one()

    # -- mapping protocol ------------------------------------------------ #

    def __getitem__(self, cid: int) -> object:
        cid = int(cid)
        if cid in self._resident:
            self._resident.move_to_end(cid)
            return self._resident[cid]
        path = self._spilled.pop(cid, None)
        if path is None:
            raise KeyError(cid)
        value = pickle.loads(path.read_bytes())
        self._resident[cid] = value
        self._enforce()
        return value

    def __setitem__(self, cid: int, value: object) -> None:
        cid = int(cid)
        self._spilled.pop(cid, None)  # a fresh write supersedes any spill
        self._resident[cid] = value
        self._resident.move_to_end(cid)
        self._enforce()

    def __delitem__(self, cid: int) -> None:
        cid = int(cid)
        if cid in self._resident:
            del self._resident[cid]
        elif cid in self._spilled:
            del self._spilled[cid]
        else:
            raise KeyError(cid)

    def __iter__(self):
        return iter(sorted(set(self._resident) | set(self._spilled)))

    def __len__(self) -> int:
        return len(self._resident) + len(self._spilled)

    # -- diagnostics / checkpointing ------------------------------------- #

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    @property
    def spilled_count(self) -> int:
        return len(self._spilled)

    def peek(self, cid: int) -> object:
        """Read a value without promoting it (spilled entries stay spilled)."""
        cid = int(cid)
        if cid in self._resident:
            return self._resident[cid]
        return pickle.loads(self._spilled[cid].read_bytes())

    def export(self) -> "dict[int, object]":
        """All entries by value, sorted by client id (checkpoint payload).
        Reads spilled entries without promoting them, so exporting a large
        spilled store does not blow the residency budget."""
        return {cid: self.peek(cid) for cid in self}

    def load(self, mapping) -> None:
        """Replace the contents with ``mapping`` (inverse of :meth:`export`)."""
        self.clear()
        for cid in sorted(mapping):
            self[int(cid)] = mapping[cid]

    def clear(self) -> None:
        self._resident.clear()
        self._spilled.clear()

    # -- pickling (executor snapshots) ----------------------------------- #

    def __getstate__(self) -> dict:
        # Snapshots are self-contained: spilled entries are materialized by
        # value so a worker process never depends on the parent's temp
        # files. The restored store re-spills into its own directory.
        return {
            "resident_limit": self.resident_limit,
            "spill_dir": str(self._spill_dir) if self._spill_dir is not None else None,
            "items": self.export(),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            resident_limit=state["resident_limit"],
            spill_dir=state["spill_dir"],
        )
        self.load(state["items"])


class LazyFactoryBank:
    """Lazy sequence over a pure per-client factory.

    ``bank[cid]`` calls ``factory(cid)`` on first touch and caches the
    result; :meth:`retain` drops everything outside a keep-set. The factory
    must be pure in ``cid`` (given fixed config/seed), so a dropped entry
    rebuilds bit-identically — which is also why cache state never crosses
    an executor boundary (pickling drops it).
    """

    def __init__(self, factory: Callable[[int], object], length: int) -> None:
        self._factory = factory
        self._length = int(length)
        self._cache: "dict[int, object]" = {}

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, cid: int) -> object:
        cid = int(cid)
        if not 0 <= cid < self._length:
            raise IndexError(f"client {cid} outside bank of {self._length}")
        obj = self._cache.get(cid)
        if obj is None:
            obj = self._factory(cid)
            self._cache[cid] = obj
        return obj

    def __iter__(self):
        for cid in range(self._length):
            yield self[cid]

    def retain(self, keep) -> None:
        """Drop cached entries outside ``keep`` (purity makes this free)."""
        keep = {int(c) for c in keep}
        for cid in [c for c in self._cache if c not in keep]:
            del self._cache[cid]

    def cached_clients(self) -> "list[int]":
        return sorted(self._cache)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_cache"] = {}
        return state


def client_model_fns(
    fns: "Sequence[Callable[[], object]] | Callable[[], object] | None",
    default: "Callable[[], object]",
    num_clients: int,
) -> "list[Callable[[], object]]":
    """One model builder per client: ``None`` means ``default``, a single
    callable is broadcast to every client, and a sequence must hold exactly
    one builder per client (``ValueError`` otherwise)."""
    if fns is None:
        fns = default
    if callable(fns):
        return [fns] * num_clients
    if len(fns) != num_clients:
        raise ValueError(f"need one local model builder per client ({num_clients}); got {len(fns)}")
    return list(fns)


class ClientModelBank:
    """Per-client persistent models, constructed on demand.

    ``bank[cid]`` is client ``cid``'s live module: constructed from its
    model fn on first touch (loading any parked state), kept live up to
    ``resident_limit`` modules, after which the least-recently-used one is
    evicted — its state dict parked in a :class:`ClientStateStore` (which
    itself spills past the same limit). With ``resident_limit=None`` every
    touched module stays live, preserving object identity across rounds
    (the eager semantics tests rely on).

    Only *touched* clients carry state: an untouched client's model is its
    deterministic fresh initialization, so :meth:`export_states` /
    :meth:`load_states` move O(touched) data regardless of population size.
    """

    def __init__(
        self,
        model_fns: "Sequence[Callable[[], object]]",
        resident_limit: int | None = None,
        spill_dir: "str | Path | None" = None,
    ) -> None:
        if resident_limit is not None and resident_limit < 1:
            raise ValueError(f"resident_limit must be >= 1; got {resident_limit}")
        self._fns = list(model_fns)
        self.resident_limit = resident_limit
        self._live: "OrderedDict[int, object]" = OrderedDict()
        self._parked = ClientStateStore(resident_limit=resident_limit, spill_dir=spill_dir)

    def __len__(self) -> int:
        return len(self._fns)

    def __getitem__(self, cid: int) -> object:
        cid = int(cid)
        if not 0 <= cid < len(self._fns):
            raise IndexError(f"client {cid} outside bank of {len(self._fns)}")
        model = self._live.get(cid)
        if model is None:
            model = self._fns[cid]()
            if cid in self._parked:
                model.load_state_dict(self._parked.pop(cid))
            self._live[cid] = model
            self._enforce()
        else:
            self._live.move_to_end(cid)
        return model

    def __iter__(self):
        for cid in range(len(self._fns)):
            yield self[cid]

    def _enforce(self) -> None:
        if self.resident_limit is None:
            return
        while len(self._live) > self.resident_limit:
            cid, model = self._live.popitem(last=False)
            self._parked[cid] = model.state_dict()

    def load_state(self, cid: int, state) -> None:
        """Write back client ``cid``'s trained weights (live or parked)."""
        cid = int(cid)
        if cid in self._live:
            self._live[cid].load_state_dict(state)
            self._live.move_to_end(cid)
        else:
            self._parked[cid] = state

    @property
    def touched(self) -> "list[int]":
        """Clients whose models carry non-fresh state, sorted."""
        return sorted(set(self._live) | set(self._parked))

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def spilled_count(self) -> int:
        return self._parked.spilled_count

    def export_states(self) -> "dict[int, object]":
        """Touched clients' state dicts by value (checkpoint payload)."""
        out: "dict[int, object]" = {}
        for cid in self.touched:
            if cid in self._live:
                out[cid] = self._live[cid].state_dict()
            else:
                out[cid] = self._parked.peek(cid)
        return out

    def load_states(self, payload) -> None:
        """Restore from :meth:`export_states` (dict of touched clients).
        Clients outside the payload revert to their deterministic fresh
        initialization. Anything but a mapping raises
        :class:`~repro.fl.checkpoint.CheckpointError` before any client's
        model is reset."""
        if not isinstance(payload, Mapping):
            raise CheckpointError(
                "client model states must be a {client id: state dict} mapping; "
                f"got {type(payload).__name__}"
            )
        payload = {int(cid): state for cid, state in payload.items()}
        # Live modules keep their identity where possible; everything else
        # reverts to fresh-on-demand construction.
        for cid in [c for c in self._live if c not in payload]:
            del self._live[cid]
        self._parked.clear()
        for cid in sorted(payload):
            self.load_state(cid, payload[cid])

    def __getstate__(self) -> dict:
        # Executor snapshots carry states, not live modules: workers
        # reconstruct on demand (deterministic fns + exported states give
        # bitwise-identical models).
        return {
            "_fns": self._fns,
            "resident_limit": self.resident_limit,
            "states": self.export_states(),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_fns"], resident_limit=state["resident_limit"])
        self.load_states(state["states"])
