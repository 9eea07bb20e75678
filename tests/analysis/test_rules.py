"""Per-rule fixture coverage: every AST and flow rule has a known-bad file
that must flag and a known-good sibling that must stay silent for that
code."""

from __future__ import annotations

import pytest

from repro.analysis import AST_RULES, FLOW_RULES, AnalysisConfig, lint_paths

CASES = {
    "RPL101": ("rpl101_bad.py", "rpl101_good.py", 5),
    "RPL102": ("rpl102_bad.py", "rpl102_good.py", 2),
    "RPL103": ("rpl103_bad.py", "rpl103_good.py", 2),
    "RPL201": ("rpl201_bad.py", "rpl201_good.py", 4),
    "RPL301": ("rpl301_bad.py", "rpl301_good.py", 4),
    "RPL302": ("rpl302_bad.py", "rpl302_good.py", 1),
    "RPL501": ("rpl501_bad.py", "rpl501_good.py", 2),
    "RPL502": ("rpl502_bad.py", "rpl502_good.py", 2),
    "RPL701": ("rpl701_bad.py", "rpl701_good.py", 3),
    "RPL702": ("rpl702_bad.py", "rpl702_good.py", 2),
    "RPL703": ("rpl703_bad.py", "rpl703_good.py", 4),
    "RPL704": ("rpl704_bad.py", "rpl704_good.py", 4),
    "RPL705": ("rpl705_bad.py", "rpl705_good.py", 3),
}


def test_every_checkable_rule_has_fixture_coverage():
    codes = {r.code for r in AST_RULES} | {r.code for r in FLOW_RULES}
    assert codes == set(CASES)


@pytest.mark.parametrize("code", sorted(CASES))
def test_bad_fixture_flags(code, lint_fixture):
    bad, _, expected = CASES[code]
    result = lint_fixture(bad, select=frozenset({code}))
    got = [v for v in result.violations if v.code == code]
    assert len(got) == expected, (
        f"{bad} should raise {expected}x {code}; got {result.violations}"
    )
    # findings carry real positions for editor/CI navigation
    assert all(v.line >= 1 for v in got)


@pytest.mark.parametrize("code", sorted(CASES))
def test_good_fixture_passes(code, lint_fixture):
    _, good, _ = CASES[code]
    result = lint_fixture(good, select=frozenset({code}))
    assert result.ok, f"{good} must be clean for {code}; got {result.violations}"


def test_good_fixtures_clean_under_all_rules(lint_fixture):
    """The good fixtures are clean under *every* rule, not just their own
    (guards against rules tripping over each other's idioms)."""
    for code, (_, good, _) in CASES.items():
        result = lint_fixture(good)
        assert result.ok, f"{good}: {result.violations}"


def test_rpl704_round_override_does_not_walk_the_base_round(tmp_path):
    """The base round() is judged through the hooks it calls, so an
    override's super().round() does not pull the base round's own writes
    into its walk; the override's own write is still flagged."""
    pkg = tmp_path / "src" / "repro" / "fl"
    pkg.mkdir(parents=True)
    (pkg / "base.py").write_text(
        "class FLAlgorithm:\n"
        "    def round(self, round_idx, selected):\n"
        "        self._round_start = round_idx\n"
    )
    (pkg / "custom.py").write_text(
        "from repro.fl.base import FLAlgorithm\n"
        "class Counting(FLAlgorithm):\n"
        "    def round(self, round_idx, selected):\n"
        "        self.seen = round_idx\n"
        "        super().round(round_idx, selected)\n"
    )
    config = AnalysisConfig(scopes={}, select=frozenset({"RPL704"}))
    result = lint_paths([tmp_path / "src"], config=config, root=tmp_path)
    assert [(v.path, v.line) for v in result.violations] == [("src/repro/fl/custom.py", 4)]


def test_rules_have_identity():
    codes = set()
    for rule in AST_RULES:
        assert rule.code.startswith("RPL") and rule.code not in codes
        codes.add(rule.code)
        assert rule.name and rule.invariant
        assert rule.kind == "ast"
