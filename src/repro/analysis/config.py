"""Lint configuration: rule selection and path-scoped rule sets.

Rules default to running everywhere, but some invariants only bind inside
part of the library: the fused optimizers write through ``out=`` by
design (they step under no-grad on scratch buffers). Scopes express that
as substring matches on the repo-relative posix path — crude but predictable, and an
override away on the command line (``--select`` / ``--ignore``) or in a
test (``AnalysisConfig(scopes={})`` lints fixtures wherever they live).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["PathScope", "AnalysisConfig", "DEFAULT_SCOPES"]


@dataclass(frozen=True)
class PathScope:
    """Where a rule applies: substring filters over the display path."""

    include: tuple[str, ...] = ()  # empty = everywhere
    exclude: tuple[str, ...] = ()

    def applies(self, display: str) -> bool:
        path = display.replace("\\", "/")
        if self.include and not any(part in path for part in self.include):
            return False
        return not any(part in path for part in self.exclude)


DEFAULT_SCOPES: dict[str, PathScope] = {
    # The fused SGD/Adam step buffers via out= deliberately (no-grad,
    # per-param scratch); the aliasing hazard is autograd op bodies.
    "RPL302": PathScope(include=("src/repro/nn",), exclude=("src/repro/nn/optim",)),
}


@dataclass
class AnalysisConfig:
    """Which rules run, and where."""

    select: "frozenset[str] | None" = None  # None = all registered rules
    ignore: frozenset[str] = frozenset()
    scopes: dict[str, PathScope] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "AnalysisConfig":
        return cls(scopes=dict(DEFAULT_SCOPES))

    def with_overrides(self, **kwargs: Any) -> "AnalysisConfig":
        return replace(self, **kwargs)

    def rule_enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        return self.select is None or code in self.select

    def rule_applies(self, code: str, display: str) -> bool:
        scope = self.scopes.get(code)
        return scope is None or scope.applies(display)
