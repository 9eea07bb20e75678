"""Tier-1 gate: the repository's own source tree is reprolint-clean.

Any new global-RNG call, civil-time or OS-entropy read, cached im2col
mutation or autograd op without a backward fails this test — the lint is
part of the test suite, not an optional extra.
"""

from __future__ import annotations

import pathlib

from repro.analysis import AnalysisConfig, lint_paths

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
    # the full repo pass must stay an order of magnitude under it.
    assert sum(result.timings.values()) < 60.0
