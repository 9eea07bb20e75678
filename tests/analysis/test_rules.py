"""Per-rule fixture coverage: every rule has a known-bad file that must
flag and a known-good sibling that must stay silent for that code."""

from __future__ import annotations

import pytest

from repro.analysis import ALL_RULES, AnalysisConfig, lint_paths
from repro.analysis.rules.rng import (
    GLOBAL_STATE_FUNCS,
    OS_ENTROPY_CALLS,
    UNSEEDED_CONSTRUCTORS,
    WALL_CLOCK_CALLS,
)

CASES = {
    "RPL101": ("rpl101_bad.py", "rpl101_good.py", 5),
    "RPL102": ("rpl102_bad.py", "rpl102_good.py", 3),
    "RPL103": ("rpl103_bad.py", "rpl103_good.py", 2),
    "RPL201": ("rpl201_bad.py", "rpl201_good.py", 5),
    "RPL301": ("rpl301_bad.py", "rpl301_good.py", 4),
    "RPL302": ("rpl302_bad.py", "rpl302_good.py", 1),
    "RPL501": ("rpl501_bad.py", "rpl501_good.py", 2),
    "RPL502": ("rpl502_bad.py", "rpl502_good.py", 2),
}


def test_every_checkable_rule_has_fixture_coverage():
    assert {r.code for r in ALL_RULES} == set(CASES)


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


# Agreement: the rules read one entropy table, so every entry is flagged,
# in library code and in an example alike (no rule is path-scoped).
_PROBE_HEADER = "import datetime, os, secrets, time, uuid\nimport numpy as np\n"
_PROBE_DIRS = ("src/repro", "examples")
_UNSEEDED_FORMS = sorted(
    f"np.random.{ctor}({args})"
    for ctor in UNSEEDED_CONSTRUCTORS
    for args in ("", "None", "seed=None")
)
# A bit generator or SeedSequence built without a seed, handed to a
# front end: flagged at the inner call.
_OS_ENTROPY_SEED_FORMS = [
    "np.random.Generator(np.random.PCG64())",
    "np.random.Generator(bit_generator=np.random.MT19937())",
    "np.random.default_rng(np.random.SeedSequence())",
    "np.random.RandomState(np.random.MT19937(None))",
]
# Seeded through the parameter each constructor takes its seed by.
_SEEDED_FORMS = [
    "np.random.Generator(bit_generator=np.random.PCG64(0))",
    "np.random.Generator(np.random.Philox(key=3))",
    "np.random.Philox(None, key=3)",
    "np.random.default_rng(np.random.SeedSequence(7))",
    "np.random.SeedSequence(entropy=7, spawn_key=(1, 2))",
    "np.random.SFC64(np.random.SeedSequence(entropy=7))",
]


def _flagged_lines(tmp_path, body, code, where="src/repro"):
    """Lines ``code`` flags in a probe module under ``where`` ending with
    ``body``, linted with the default scopes."""
    path = tmp_path / where / "probe.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_PROBE_HEADER + body)
    config = AnalysisConfig.default().with_overrides(select=frozenset({code}))
    return [v.line for v in lint_paths([path], config=config, root=tmp_path).violations]


def _last_line(body):
    return _PROBE_HEADER.count("\n") + body.count("\n")


@pytest.mark.parametrize("where", _PROBE_DIRS)
@pytest.mark.parametrize(
    "call, rule",
    [(f"np.random.{f}()", "RPL101") for f in sorted(GLOBAL_STATE_FUNCS)]
    + [(form, "RPL102") for form in _UNSEEDED_FORMS + _OS_ENTROPY_SEED_FORMS]
    + [(f"{name}()", "RPL201") for name in sorted(WALL_CLOCK_CALLS | OS_ENTROPY_CALLS)],
)
def test_every_entropy_table_entry_is_flagged(tmp_path, call, rule, where):
    body = f"{call}\n"
    assert _flagged_lines(tmp_path, body, rule, where) == [_last_line(body)]


@pytest.mark.parametrize("call", _SEEDED_FORMS)
def test_seeded_constructors_pass(tmp_path, call):
    assert _flagged_lines(tmp_path, f"{call}\n", "RPL102") == []


def test_rules_have_identity():
    codes = set()
    for rule in ALL_RULES:
        assert rule.code.startswith("RPL") and rule.code not in codes
        codes.add(rule.code)
        assert rule.name and rule.invariant
