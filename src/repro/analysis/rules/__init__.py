"""Rule registry: every reprolint rule, AST and flow, by code.

Adding a rule = write the class, instantiate it in :data:`AST_RULES` (or
:data:`~repro.analysis.rules.flow_rules.FLOW_RULES`); the CLI, engine,
``--list-rules`` and the fixture-coverage test pick it up from here.
"""

from __future__ import annotations

from repro.analysis.rules.aliasing import CacheEntryMutation, OutAliasesTensorData
from repro.analysis.rules.autograd_ops import ForwardWithoutBackward, MissingSuperInit
from repro.analysis.rules.base import AstRule, Rule, SourceModule, Violation
from repro.analysis.rules.flow_rules import FLOW_RULES, FlowRule
from repro.analysis.rules.rng import GlobalNumpyRng, StdlibRandom, UnseededDefaultRng, WallClockCall

__all__ = [
    "Rule",
    "AstRule",
    "FlowRule",
    "SourceModule",
    "Violation",
    "AST_RULES",
    "FLOW_RULES",
    "ALL_RULES",
    "RULES_BY_CODE",
]

AST_RULES: tuple[AstRule, ...] = (
    GlobalNumpyRng(),
    UnseededDefaultRng(),
    StdlibRandom(),
    WallClockCall(),
    CacheEntryMutation(),
    OutAliasesTensorData(),
    ForwardWithoutBackward(),
    MissingSuperInit(),
)

ALL_RULES: tuple[Rule, ...] = AST_RULES + FLOW_RULES

RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
if len(RULES_BY_CODE) != len(ALL_RULES):  # pragma: no cover - registration bug
    raise RuntimeError("duplicate reprolint rule codes registered")
