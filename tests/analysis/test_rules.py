"""Per-rule fixture coverage: every AST and flow rule has a known-bad file
that must flag and a known-good sibling that must stay silent for that
code."""

from __future__ import annotations

import pytest

from repro.analysis import AST_RULES, FLOW_RULES, AnalysisConfig, lint_paths
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
    "RPL201": ("rpl201_bad.py", "rpl201_good.py", 4),
    "RPL301": ("rpl301_bad.py", "rpl301_good.py", 4),
    "RPL302": ("rpl302_bad.py", "rpl302_good.py", 1),
    "RPL501": ("rpl501_bad.py", "rpl501_good.py", 2),
    "RPL502": ("rpl502_bad.py", "rpl502_good.py", 2),
    "RPL701": ("rpl701_bad.py", "rpl701_good.py", 3),
    "RPL702": ("rpl702_bad.py", "rpl702_good.py", 2),
    "RPL703": ("rpl703_bad.py", "rpl703_good.py", 4),
    "RPL704": ("rpl704_bad.py", "rpl704_good.py", 3),
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


def test_flow_finding_reached_twice_is_reported_once(tmp_path):
    """A helper both client-work hooks reach, and an aggregate two
    subclasses inherit, each yield one finding, with the first witness."""
    path = tmp_path / "twice.py"
    path.write_text(
        "import numpy as np\n"
        "from repro.fl.algorithms.base import FLAlgorithm\n"
        "def noise():\n"
        "    return np.random.rand()\n"
        "class Base(FLAlgorithm):\n"
        "    def client_work(self, round_idx, cid, payload):\n"
        "        return noise()\n"
        "    def client_work_batched(self, round_idx, cids, payloads):\n"
        "        return noise()\n"
        "    def aggregate(self, updates):\n"
        "        self.drift = 1\n"
        "class Left(Base):\n"
        "    pass\n"
        "class Right(Base):\n"
        "    pass\n"
    )
    config = AnalysisConfig(scopes={}, select=frozenset({"RPL701", "RPL704"}))
    found = lint_paths([path], config=config).violations
    assert [(v.code, v.line) for v in found] == [("RPL701", 4), ("RPL704", 11)]
    assert "via Base.client_work -> noise" in found[0].message


# Agreement: the per-file rules and the flow rules read one entropy table,
# so every entry is flagged both at module level and on a hook's path.
_PROBE_HEADER = "import datetime, os, secrets, time, uuid\nimport numpy as np\n"
_PROBE_ALGORITHM = (
    "from repro.fl.algorithms.base import FLAlgorithm\n"
    "class Probe(FLAlgorithm):\n"
    "    def {hook}:\n"
    "        return {call}\n"
)
_FLOW_HOOK = {
    "RPL701": "client_work(self, round_idx, cid, payload)",
    "RPL705": "round(self, round_idx, selected)",
}
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


def _flagged_lines(tmp_path, body, code):
    """Lines ``code`` flags in a probe module ending with ``body``."""
    path = tmp_path / "probe.py"
    path.write_text(_PROBE_HEADER + body)
    config = AnalysisConfig(scopes={}, select=frozenset({code}))
    return [v.line for v in lint_paths([path], config=config).violations]


def _last_line(body):
    return _PROBE_HEADER.count("\n") + body.count("\n")


@pytest.mark.parametrize(
    "call, module_rule, flow_rule",
    [(f"np.random.{f}()", "RPL101", "RPL701") for f in sorted(GLOBAL_STATE_FUNCS)]
    + [(form, "RPL102", "RPL701") for form in _UNSEEDED_FORMS + _OS_ENTROPY_SEED_FORMS]
    + [(f"{name}()", "RPL201", "RPL705") for name in sorted(WALL_CLOCK_CALLS)]
    + [(f"{name}()", None, "RPL705") for name in sorted(OS_ENTROPY_CALLS)],
)
def test_module_and_flow_rules_agree_on_the_entropy_table(
    tmp_path, call, module_rule, flow_rule
):
    if module_rule is not None:
        body = f"{call}\n"
        assert _flagged_lines(tmp_path, body, module_rule) == [_last_line(body)]
    body = _PROBE_ALGORITHM.format(hook=_FLOW_HOOK[flow_rule], call=call)
    assert _flagged_lines(tmp_path, body, flow_rule) == [_last_line(body)]


@pytest.mark.parametrize("call", _SEEDED_FORMS)
def test_seeded_constructors_pass_both_rules(tmp_path, call):
    assert _flagged_lines(tmp_path, f"{call}\n", "RPL102") == []
    body = _PROBE_ALGORITHM.format(hook=_FLOW_HOOK["RPL701"], call=call)
    assert _flagged_lines(tmp_path, body, "RPL701") == []


def test_rules_have_identity():
    codes = set()
    for rule in AST_RULES:
        assert rule.code.startswith("RPL") and rule.code not in codes
        codes.add(rule.code)
        assert rule.name and rule.invariant
        assert rule.kind == "ast"
