"""In-source escape hatches: ``# reprolint: allow[...]`` / ``skip-file``.

A violation is suppressed when the *line it is reported on* carries a
matching allow pragma::

    rng = np.random.default_rng()  # reprolint: allow[RPL102] interactive tool

``allow[*]`` suppresses every rule on that line. A ``# reprolint:
skip-file`` comment anywhere in the file excludes the whole file (used for
generated code and the known-bad lint fixtures). Pragmas are deliberately
line-scoped: a blanket allowance would hide new violations added later.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["FilePragmas", "parse_pragmas"]

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>allow|skip-file)(?:\[(?P<codes>[^\]]*)\])?"
)


@dataclass
class FilePragmas:
    """Parsed pragma state for one file."""

    skip_file: bool = False
    allows: dict[int, frozenset[str]] = field(default_factory=dict)  # line -> codes

    def suppresses(self, line: int, code: str) -> bool:
        codes = self.allows.get(line)
        return codes is not None and (code in codes or "*" in codes)

    def suppresses_any(self, lines: Iterable[int], code: str) -> bool:
        """Pragma on *any* of ``lines`` (a multi-line expression span)
        suppresses the finding."""
        return any(self.suppresses(line, code) for line in lines)


def parse_pragmas(source: str) -> FilePragmas:
    pragmas = FilePragmas()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "reprolint" not in text:
            continue
        m = _PRAGMA_RE.search(text)
        if m is None:
            continue
        if m.group("kind") == "skip-file":
            pragmas.skip_file = True
            continue
        raw = m.group("codes") or ""
        codes = frozenset(c.strip().upper() for c in raw.split(",") if c.strip())
        if codes:
            merged = pragmas.allows.get(lineno, frozenset()) | codes
            pragmas.allows[lineno] = merged
    return pragmas
