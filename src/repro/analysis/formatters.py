"""Output formatters: human text and GitHub annotations."""

from __future__ import annotations

from repro.analysis.engine import LintResult

__all__ = ["format_text", "format_github", "FORMATTERS"]


def format_text(result: LintResult) -> str:
    lines = [str(v) for v in result.violations]
    summary = (
        f"{len(result.violations)} violation"
        f"{'' if len(result.violations) == 1 else 's'} "
        f"({result.suppressed} suppressed by pragma, "
        f"{result.files_checked} files checked)"
    )
    lines.append(summary)
    return "\n".join(lines)


def _escape(message: str) -> str:
    """GitHub annotation payloads are %-encoded for newlines and %."""
    return message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def format_github(result: LintResult) -> str:
    """``::error`` workflow commands — one annotation per violation."""
    lines = [
        f"::error file={v.path},line={v.line},col={v.col + 1},"
        f"title={v.code}::{_escape(v.message)}"
        for v in result.violations
    ]
    lines.append(
        f"reprolint: {len(result.violations)} violations, "
        f"{result.suppressed} suppressed, {result.files_checked} files"
    )
    return "\n".join(lines)


FORMATTERS = {"text": format_text, "github": format_github}
