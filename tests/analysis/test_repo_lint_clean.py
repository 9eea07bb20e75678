"""Tier-1 gate: the repository's own source tree is reprolint-clean.

Any new global-RNG call, wall-clock leak into an algorithm path, cached
im2col mutation, missing server_state override, or broken pickle/resume
contract fails this test — the lint is part of the test suite, not an
optional extra.
"""

from __future__ import annotations

import ast
import pathlib

from repro.analysis import AnalysisConfig, lint_paths
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.rules.base import SourceModule, collect_aliases
from repro.analysis.rules.batched import PerClientLoop

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
LINT_TARGETS = [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]


def test_repo_is_lint_clean():
    config = AnalysisConfig.default()
    result = lint_paths(LINT_TARGETS, config=config, root=REPO_ROOT)
    assert result.files_checked > 50  # sanity: the walk actually found the tree
    assert result.ok, "reprolint violations:\n" + "\n".join(
        str(v) for v in result.violations
    )
    # Per-rule timings back the CI budget (<60s for the whole lint job):
    # the full repo pass — AST rules, call-graph build, flow rules and the
    # live contract pass — must stay an order of magnitude under it.
    assert {"flow:index", "contracts"} <= set(result.timings)
    assert sum(result.timings.values()) < 60.0


def test_batched_has_one_sanctioned_per_client_loop():
    """``nn/batched.py`` has exactly one ``allow[RPL601]`` pragma, on the
    loop RPL601 itself flags (``_per_slice``'s): a second hand-written
    per-slice op fails here, not in review."""
    path = REPO_ROOT / "src" / "repro" / "nn" / "batched.py"
    source = path.read_text(encoding="utf-8")
    allowed = [line for line, codes in parse_pragmas(source).allows.items() if "RPL601" in codes]
    tree = ast.parse(source)
    module = SourceModule(
        path=path, display="src/repro/nn/batched.py", source=source, tree=tree,
        aliases=collect_aliases(tree),
    )
    flagged = [v.line for v in PerClientLoop().check(module)]
    assert len(allowed) == 1 and flagged == allowed
