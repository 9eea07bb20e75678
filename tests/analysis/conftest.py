"""Shared helpers for the reprolint test suite."""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import AnalysisConfig, lint_paths

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def lint_fixture():
    """Lint a single fixture file with scopes cleared (fixtures live under
    tests/, outside every default path scope)."""

    def run(name: str, **config_overrides):
        config = AnalysisConfig(scopes={}, **config_overrides)
        return lint_paths([FIXTURES / name], config=config)

    return run
