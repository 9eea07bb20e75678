"""Determinism rules: no hidden entropy sources, no civil time.

Every stochastic stream in this repo must be a pure function of
``(seed, round, client)`` (see ``utils/rng.py``) — that is what makes the
paired Table 1–3 comparisons, fault-injection replay, and bit-identical
checkpoint resume valid. This module is the one place that classifies an
entropy call (:func:`classify_call`): the global-state NumPy table, the
unseeded-constructor predicate and the wall-clock and OS-entropy tables
below are read by the per-file rules here (RPL101, RPL102, RPL201).

RPL103 flags the stdlib ``random`` *import*. RPL201 flags every civil-time
and OS-entropy call wherever it is: durations use ``time.perf_counter``,
simulated time the runtime's ``VirtualClock``, randomness a seeded
``utils.rng`` stream.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.rules.base import Rule, SourceModule, Violation, dotted_name

__all__ = [
    "GLOBAL_STATE_FUNCS",
    "UNSEEDED_CONSTRUCTORS",
    "WALL_CLOCK_CALLS",
    "OS_ENTROPY_CALLS",
    "unseeded",
    "classify_call",
    "entropy_calls",
    "GlobalNumpyRng",
    "UnseededDefaultRng",
    "StdlibRandom",
    "WallClockCall",
]

# Module-level functions of numpy.random that draw from (or reseed) the
# hidden global RandomState. Methods on an explicit Generator share these
# names; resolution through the import table keeps them apart.
GLOBAL_STATE_FUNCS = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "beta",
        "gamma",
        "exponential",
        "laplace",
        "multinomial",
        "multivariate_normal",
        "dirichlet",
    }
)

# numpy.random constructors that draw OS entropy when no seed reaches them:
# the generator front ends, the bit generators and SeedSequence.
UNSEEDED_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "RandomState",
        "Generator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
        "SeedSequence",
    }
)

# The parameters a constructor takes its seed through, where they are not
# just ``seed``: a Generator is seeded by its bit generator (flagged on its
# own when it is built unseeded), a SeedSequence by its entropy, and a
# Philox by its seed or its key.
_SEED_PARAMS: dict[str, tuple[str, ...]] = {
    "Generator": ("bit_generator",),
    "SeedSequence": ("entropy",),
    "Philox": ("seed", "key"),
}

# Civil-time reads (perf_counter/monotonic are sanctioned for measurement).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.asctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

# OS entropy: irreproducible like the wall clock (RPL201 reads both).
OS_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)


def unseeded(call: ast.Call, params: "tuple[str, ...]" = ("seed",)) -> bool:
    """No positional seed and no ``params``/``**`` keyword, or only constant
    ``None`` ones: NumPy then draws OS entropy exactly as for no seed."""
    given = call.args[:1] + [
        kw.value for kw in call.keywords if kw.arg is None or kw.arg in params
    ]
    return all(isinstance(v, ast.Constant) and v.value is None for v in given)


def classify_call(call: ast.Call, aliases: dict[str, str]) -> "tuple[str, str] | None":
    """``(kind, resolved name)`` of an entropy call, else ``None``.

    Kinds: ``global-state`` (a :data:`GLOBAL_STATE_FUNCS` function),
    ``unseeded`` (an :data:`UNSEEDED_CONSTRUCTORS` call passing no seed),
    ``stdlib`` (a stdlib ``random`` function), ``fallback`` (``new_rng``
    without a seed: the sanctioned interactive lane, fatal only on a
    client path), ``wall-clock`` and ``os-entropy``.
    """
    name = dotted_name(call.func, aliases)
    if name is None:
        return None
    if name.startswith("numpy.random."):
        func = name.rsplit(".", 1)[1]
        if func in UNSEEDED_CONSTRUCTORS:
            seeded_by = _SEED_PARAMS.get(func, ("seed",))
            return ("unseeded", name) if unseeded(call, seeded_by) else None
        return ("global-state", name) if func in GLOBAL_STATE_FUNCS else None
    if name.startswith("random."):
        return ("stdlib", name)
    if name == "new_rng" or name.endswith(".new_rng"):
        return ("fallback", name) if unseeded(call) else None
    if name in WALL_CLOCK_CALLS:
        return ("wall-clock", name)
    if name in OS_ENTROPY_CALLS:
        return ("os-entropy", name)
    return None


def entropy_calls(
    tree: ast.AST, aliases: dict[str, str]
) -> Iterator[tuple[ast.Call, str, str]]:
    """Every classified call under ``tree``: ``(node, kind, name)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            found = classify_call(node, aliases)
            if found is not None:
                yield node, found[0], found[1]


class _EntropyCallRule(Rule):
    """Flags the module's calls of the :func:`classify_call` kinds it names."""

    flags: "tuple[str, ...]" = ()
    message = ""  # formatted with the resolved call name

    def check(self, module: SourceModule) -> Iterable[Violation]:
        for node, kind, name in module.entropy_calls:
            if kind in self.flags:
                yield self.violation(module, node, self.message.format(name))


class GlobalNumpyRng(_EntropyCallRule):
    """``np.random.rand(...)``-style calls mutate process-global state."""

    code = "RPL101"
    name = "numpy-global-rng"
    invariant = (
        "nothing draws from (or reseeds) the global NumPy RNG; all sampling "
        "goes through an explicit seeded Generator (utils.rng.new_rng)"
    )
    flags = ("global-state",)
    message = (
        "call to {} uses the process-global RNG; "
        "draw from an explicit generator (utils.rng.new_rng) instead"
    )


class UnseededDefaultRng(_EntropyCallRule):
    """An unseeded ``default_rng()`` silently breaks replayability."""

    code = "RPL102"
    name = "unseeded-default-rng"
    invariant = (
        "every Generator is constructed from a derived seed; an OS-entropy "
        "default_rng() makes runs unreproducible and resume non-bit-identical"
    )
    flags = ("unseeded",)
    message = (
        "{}() with no seed draws OS entropy; "
        "route through utils.rng.new_rng / derive_seed"
    )


class StdlibRandom(Rule):
    """The stdlib ``random`` module is one more hidden global stream."""

    code = "RPL103"
    name = "stdlib-random"
    invariant = (
        "the stdlib random module (a second process-global stream, not "
        "covered by the NumPy seeding discipline) is never imported"
    )

    def check(self, module: SourceModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "random" or a.name.startswith("random."):
                        yield self.violation(
                            module,
                            node,
                            "stdlib 'random' imported; use numpy Generators "
                            "from utils.rng so every stream is seed-derived",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield self.violation(
                        module,
                        node,
                        "import from stdlib 'random'; use numpy Generators "
                        "from utils.rng so every stream is seed-derived",
                    )


class WallClockCall(_EntropyCallRule):
    """Civil-time and OS-entropy reads, anywhere in the linted tree."""

    code = "RPL201"
    name = "wall-clock-call"
    invariant = (
        "no code reads civil time or OS entropy: durations use "
        "time.perf_counter, simulated time uses runtime.VirtualClock, "
        "randomness a seeded utils.rng stream, and no such value feeds "
        "RunHistory fingerprints or checkpoints"
    )
    flags = ("wall-clock", "os-entropy")
    message = (
        "{}() reads civil time or OS entropy; use time.perf_counter for "
        "durations, the runtime VirtualClock for simulated time and a "
        "seeded utils.rng stream for randomness"
    )
