"""Engine walk behavior: generated/vendored directories are never linted,
even when a genuinely bad file is planted inside them."""

from __future__ import annotations

from repro.analysis import AnalysisConfig, lint_paths

_BAD_SOURCE = "import numpy as np\nrng = np.random.default_rng()\n"
_SKIPPED_DIRS = ("build", "dist", ".ruff_cache", "repro.egg-info", "__pycache__")


def _config() -> AnalysisConfig:
    return AnalysisConfig(scopes={})


def test_generated_dirs_are_skipped(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    for name in _SKIPPED_DIRS:
        nested = tmp_path / name / "nested"
        nested.mkdir(parents=True)
        (nested / "planted.py").write_text(_BAD_SOURCE)

    result = lint_paths([tmp_path], config=_config(), root=tmp_path)
    assert result.files_checked == 1
    assert result.ok, [str(v) for v in result.violations]


def test_planted_file_really_is_bad(tmp_path):
    """Positive control for the skip test: linted directly, the planted
    source must flag — otherwise the regression test proves nothing."""
    planted = tmp_path / "planted.py"
    planted.write_text(_BAD_SOURCE)
    result = lint_paths([planted], config=_config())
    assert not result.ok
    assert any(v.code == "RPL102" for v in result.violations)


def test_explicit_file_argument_is_always_linted(tmp_path):
    """Skipping applies to directory walks only: naming a file on the
    command line lints it wherever it lives."""
    nested = tmp_path / "build" / "planted.py"
    nested.parent.mkdir()
    nested.write_text(_BAD_SOURCE)
    result = lint_paths([nested], config=_config())
    assert not result.ok
