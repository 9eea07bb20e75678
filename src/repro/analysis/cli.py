"""The ``reprolint`` command line (``python -m repro.analysis``).

Exit codes: 0 clean, 1 violations found, 2 usage or internal error —
the same convention the CI lint job keys off.
"""

from __future__ import annotations

import argparse
import fnmatch
import sys

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import lint_paths
from repro.analysis.formatters import FORMATTERS
from repro.analysis.rules import ALL_RULES

__all__ = ["main", "build_parser"]

_DEFAULT_PATHS = ["src/repro", "benchmarks", "examples"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Project-specific static analysis for the FedKEMF reproduction: "
            "mechanizes the determinism, autograd and checkpoint contracts "
            "the paired-comparison and resume guarantees rest on."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=_DEFAULT_PATHS,
        help=f"files or directories to lint (default: {' '.join(_DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=sorted(FORMATTERS),
        default="text",
        help="output format (github emits ::error workflow annotations)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help=(
            "comma-separated rule codes to run exclusively; glob patterns "
            "expand against the registered codes (e.g. RPL101,RPL3*)"
        ),
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip (glob patterns allowed)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-rule wall time after the report (CI budgets the total)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code, name and the invariant it guards",
    )
    return parser


def _parse_codes(raw: "str | None", known: "set[str]") -> "frozenset[str] | None":
    """Expand a comma list of codes/globs against the registered codes.

    Returns ``None`` for "no selection". An unknown literal code, a
    pattern matching nothing, or a list naming no code at all (``""``,
    ``" , "`` — an empty CI variable) is reported as ``ValueError``: a
    selection of zero rules would green-light anything.
    """
    if raw is None:
        return None
    tokens = [t.strip().upper() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise ValueError(f"rule list {raw!r} names no rule code")
    out: set[str] = set()
    for token in tokens:
        if any(ch in token for ch in "*?["):
            matched = set(fnmatch.filter(known, token))
            if not matched:
                raise ValueError(f"pattern {token!r} matches no registered rule")
            out |= matched
        elif token in known:
            out.add(token)
        else:
            raise ValueError(f"unknown rule code {token!r}")
    return frozenset(out)


def _print_profile(timings: dict[str, float]) -> None:
    total = sum(timings.values())
    print("\nper-rule timing:", file=sys.stderr)
    for code, seconds in sorted(timings.items(), key=lambda kv: -kv[1]):
        print(f"  {code:<12} {seconds * 1000:9.1f} ms", file=sys.stderr)
    print(f"  {'total':<12} {total * 1000:9.1f} ms", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name}  [ast]")
            print(f"       {rule.invariant}")
        return 0

    known = {rule.code for rule in ALL_RULES}
    try:
        select = _parse_codes(args.select, known)
        ignore = _parse_codes(args.ignore, known) or frozenset()
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    config = AnalysisConfig.default().with_overrides(select=select, ignore=ignore)

    try:
        result = lint_paths(args.paths, config=config)
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    print(FORMATTERS[args.format](result))
    if args.profile:
        _print_profile(result.timings)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
