"""Rule plumbing shared by every reprolint check.

A rule is a small object with an identity (``code`` like ``RPL102``, a
kebab-case ``name``, the invariant it guards) and a ``check`` method that
receives one parsed :class:`SourceModule` per file and yields
:class:`Violation` records. Nothing here imports the code under analysis.
"""

from __future__ import annotations

import ast
import functools
import pathlib
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Violation",
    "SourceModule",
    "Rule",
    "collect_aliases",
    "dotted_name",
]


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and what invariant it breaks."""

    path: str  # repo-relative display path
    line: int  # 1-based
    col: int  # 0-based, as in the ast module
    code: str
    message: str
    # Suppression metadata (not part of the finding's identity): the last
    # line of the offending expression, so a pragma anywhere on a
    # multi-line call suppresses.
    end_line: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def pragma_lines(self) -> tuple[int, ...]:
        """Every line on which an ``allow`` pragma suppresses this finding."""
        return tuple(range(self.line, max(self.line, self.end_line) + 1))


@dataclass
class SourceModule:
    """A parsed file, shared by all AST rules so parsing happens once."""

    path: pathlib.Path  # absolute location on disk
    display: str  # repo-relative posix path used in reports
    source: str
    tree: ast.Module
    aliases: dict[str, str]  # local name -> dotted import target

    @functools.cached_property
    def entropy_calls(self) -> "list[tuple[ast.Call, str, str]]":
        """The module's classified entropy calls, ``(node, kind, name)``
        (:func:`repro.analysis.rules.rng.entropy_calls`): walked once and
        shared by every per-file rule that reads them."""
        from repro.analysis.rules.rng import entropy_calls  # rng imports this module

        return list(entropy_calls(self.tree, self.aliases))


def collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted import paths they refer to.

    ``import numpy as np`` binds ``np -> numpy``; ``from numpy.random import
    default_rng as drng`` binds ``drng -> numpy.random.default_rng``. The
    whole module is walked, so imports inside functions resolve too.
    Relative imports are skipped (nothing in the rule tables matches them).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    head = a.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve ``np.random.default_rng`` → ``numpy.random.default_rng``.

    Returns ``None`` for expressions that are not plain attribute chains
    rooted at a name (calls, subscripts, ...).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


class Rule:
    """Base class: identity + the invariant this check mechanizes."""

    code: str = "RPL000"
    name: str = "unnamed"
    invariant: str = ""  # one line: what must hold, shown by --list-rules

    def check(self, module: SourceModule) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(self, module: SourceModule, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=module.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            # Expression spans only: a finding anchored at a class or
            # function *statement* must not let a pragma deep in the body
            # suppress it.
            end_line=(getattr(node, "end_lineno", 0) or 0) if isinstance(node, ast.expr) else 0,
        )

