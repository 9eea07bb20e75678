"""Tier-1 gate: the repository's own source tree is reprolint-clean.

Any new global-RNG call, wall-clock leak into an algorithm path, cached
im2col mutation or missing server_state override fails this test — the
lint is part of the test suite, not an optional extra.
"""

from __future__ import annotations

import ast
import pathlib

from repro.analysis import AnalysisConfig, lint_paths
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.engine import iter_python_files
from repro.analysis.rules.base import SourceModule, collect_aliases
from repro.analysis.rules.flow_rules import algorithm_classes
from repro.fl.algorithms import ALGORITHM_REGISTRY

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
LINT_TARGETS = [SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]


def _module(path: pathlib.Path) -> SourceModule:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    return SourceModule(
        path=path, display=path.relative_to(REPO_ROOT).as_posix(), source=source,
        tree=tree, aliases=collect_aliases(tree),
    )


def test_repo_is_lint_clean():
    config = AnalysisConfig.default()
    result = lint_paths(LINT_TARGETS, config=config, root=REPO_ROOT)
    assert result.files_checked > 50  # sanity: the walk actually found the tree
    assert result.ok, "reprolint violations:\n" + "\n".join(
        str(v) for v in result.violations
    )
    # Per-rule timings back the CI budget (<60s for the whole lint job):
    # the full repo pass — AST rules, call-graph build and flow rules —
    # must stay an order of magnitude under it.
    assert "flow:index" in result.timings
    assert sum(result.timings.values()) < 60.0


def test_flow_rules_see_every_registered_algorithm():
    """The static algorithm table, read from source alone, names every
    registered class — a new algorithm it cannot see fails here instead of
    escaping the RPL7xx rules."""
    index = ProjectIndex([_module(path) for path in iter_python_files([SRC])])
    seen = {cls.name for cls in algorithm_classes(index)}
    registered = {ALGORITHM_REGISTRY.get(name).__name__ for name in ALGORITHM_REGISTRY.names()}
    assert registered <= seen, sorted(registered - seen)
