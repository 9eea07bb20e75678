"""Rule registry: every reprolint rule, by code.

Adding a rule = write the class, instantiate it in :data:`ALL_RULES`; the
CLI, engine, ``--list-rules`` and the fixture-coverage test pick it up
from here.
"""

from __future__ import annotations

from repro.analysis.rules.aliasing import CacheEntryMutation, OutAliasesTensorData
from repro.analysis.rules.autograd_ops import ForwardWithoutBackward, MissingSuperInit
from repro.analysis.rules.base import Rule, SourceModule, Violation
from repro.analysis.rules.rng import GlobalNumpyRng, StdlibRandom, UnseededDefaultRng, WallClockCall

__all__ = [
    "Rule",
    "SourceModule",
    "Violation",
    "ALL_RULES",
    "RULES_BY_CODE",
]

ALL_RULES: tuple[Rule, ...] = (
    GlobalNumpyRng(),
    UnseededDefaultRng(),
    StdlibRandom(),
    WallClockCall(),
    CacheEntryMutation(),
    OutAliasesTensorData(),
    ForwardWithoutBackward(),
    MissingSuperInit(),
)

RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
if len(RULES_BY_CODE) != len(ALL_RULES):  # pragma: no cover - registration bug
    raise RuntimeError("duplicate reprolint rule codes registered")
