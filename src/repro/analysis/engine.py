"""The lint engine: discover files, parse once, run every applicable rule.

Each file is parsed a single time into a :class:`SourceModule`; all rules
share that tree. Pragmas suppress per line (including any line of a
multi-line expression span) and path scopes gate per rule. The engine
never imports the code it lints. A file that does not parse is itself a finding
(``RPL001``) rather than a crash — the linter runs in CI over trees it did
not write.

Per-rule wall time is accumulated in :attr:`LintResult.timings` (shown by
``reprolint --profile``; the CI lint job budgets the total).
"""

from __future__ import annotations

import ast
import pathlib
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.rules import ALL_RULES, SourceModule, Violation
from repro.analysis.rules.base import collect_aliases

__all__ = ["LintResult", "iter_python_files", "lint_paths"]

PARSE_ERROR_CODE = "RPL001"

_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    "results",
    "build",
    "dist",
    ".ruff_cache",
}
_SKIP_DIR_SUFFIXES = (".egg-info",)


@dataclass
class LintResult:
    """Everything one lint invocation found."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    timings: dict[str, float] = field(default_factory=dict)  # rule code -> seconds

    @property
    def ok(self) -> bool:
        return not self.violations


def _skip_dir(part: str) -> bool:
    return part in _SKIP_DIRS or part.endswith(_SKIP_DIR_SUFFIXES)


def iter_python_files(paths: Sequence["str | pathlib.Path"]) -> Iterator[pathlib.Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            candidates: Iterable[pathlib.Path] = [path]
        elif path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if not any(_skip_dir(part) for part in p.parts)
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for p in candidates:
            resolved = p.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield p


def _display_path(path: pathlib.Path, root: "pathlib.Path | None") -> str:
    base = (root or pathlib.Path.cwd()).resolve()
    try:
        return path.resolve().relative_to(base).as_posix()
    except ValueError:
        return path.as_posix()


def _load(path: pathlib.Path, display: str) -> "SourceModule | Violation":
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Violation(
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            code=PARSE_ERROR_CODE,
            message=f"file does not parse: {exc.msg}",
        )
    return SourceModule(
        path=path,
        display=display,
        source=source,
        tree=tree,
        aliases=collect_aliases(tree),
    )


def lint_paths(
    paths: Sequence["str | pathlib.Path"],
    config: "AnalysisConfig | None" = None,
    root: "pathlib.Path | None" = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) under ``config``."""
    config = config if config is not None else AnalysisConfig.default()
    result = LintResult()
    for path in iter_python_files(paths):
        display = _display_path(path, root)
        loaded = _load(path, display)
        if isinstance(loaded, Violation):
            result.violations.append(loaded)
            result.files_checked += 1
            continue
        pragmas = parse_pragmas(loaded.source)
        if pragmas.skip_file:
            continue
        result.files_checked += 1
        for rule in ALL_RULES:
            if not config.rule_enabled(rule.code):
                continue
            if not config.rule_applies(rule.code, display):
                continue
            started = time.perf_counter()
            found = list(rule.check(loaded))
            result.timings[rule.code] = result.timings.get(rule.code, 0.0) + (
                time.perf_counter() - started
            )
            for violation in found:
                if pragmas.suppresses_any(violation.pragma_lines(), violation.code):
                    result.suppressed += 1
                else:
                    result.violations.append(violation)
    result.violations.sort()
    return result
