"""Contract pass: the real registry is clean, and deliberately broken
algorithm subclasses are caught by exactly the contract that they break."""

from __future__ import annotations

import pytest

from repro.analysis.contracts import (
    CONTRACT_RULES,
    algorithm_entries,
    run_contract_checks,
)
from repro.fl.algorithms.fedavg import FedAvg


class _UnpicklablePayload(FedAvg):
    def client_payload(self, round_idx, cid):
        payload = super().client_payload(round_idx, cid)
        payload["hook"] = lambda x: x  # lambdas do not pickle
        return payload


class _UnpicklableAlgorithm(FedAvg):
    def setup(self):
        super().setup()
        self._callback = lambda x: x


class _LossyServerState(FedAvg):
    def setup(self):
        super().setup()
        self._loads = 0

    def load_server_state(self, state):
        super().load_server_state(state)
        self._loads += 1

    def server_state(self):
        state = super().server_state()
        state["loads"] = self._loads  # round trip changes the state
        return state


class _ExecutionTaintedFingerprint(FedAvg):
    def config_fingerprint(self):
        return f"{super().config_fingerprint()}-w{self.cfg.workers}"


class _ResidencyTaintedFingerprint(FedAvg):
    """Leaks the execution-only field the pre-table RPL904 never flipped."""

    def config_fingerprint(self):
        return f"{super().config_fingerprint()}-r{self.cfg.state_residency}"


class _DecoratedFingerprint(FedAvg):
    """The good twin: reshapes the fingerprint without reading any knob."""

    def config_fingerprint(self):
        return f"v2-{super().config_fingerprint()}"


class _CohortBlindFingerprint(FedAvg):
    """Drops a trajectory-shaping knob from the fingerprint."""

    def config_fingerprint(self):
        cfg = self.cfg
        self.cfg = cfg.with_overrides(max_cohort=None)
        try:
            return super().config_fingerprint()
        finally:
            self.cfg = cfg


class _Uninstantiable(FedAvg):
    def __init__(self, model_fn, fed, cfg):  # wrong: rejects the standard signature
        raise TypeError("needs extra arguments")


class _DefenseDroppingServerState(FedAvg):
    """Forgets to ride the stateful defense in server_state(): a resumed
    autoclip run would restart with a cold threshold and drift."""

    def server_state(self):
        state = super().server_state()
        state.pop("_defense", None)
        return state


class _AmnesiacDefenseLoad(FedAvg):
    """Writes the defense state but never restores it on load."""

    def load_server_state(self, state):
        state = dict(state)
        state.pop("_defense", None)
        super().load_server_state(state)


BROKEN = {
    "RPL901": _UnpicklablePayload,
    "RPL902": _UnpicklableAlgorithm,
    "RPL903": _LossyServerState,
    "RPL904": _ExecutionTaintedFingerprint,
    "RPL905": _DefenseDroppingServerState,
}


def test_registry_contains_the_paper_algorithms():
    names = {name for name, _ in algorithm_entries()}
    assert {"fedavg", "fedkemf", "fedkd", "fedmd", "scaffold"} <= names


def test_real_registry_passes_all_contracts():
    violations = run_contract_checks()
    assert violations == [], [str(v) for v in violations]


@pytest.mark.parametrize("code", sorted(BROKEN))
def test_broken_algorithm_is_caught_by_its_contract(code):
    cls = BROKEN[code]
    violations = run_contract_checks(entries=[("broken", cls)])
    codes = {v.code for v in violations}
    assert code in codes, f"{cls.__name__} should trip {code}; got {codes or 'nothing'}"


def _rpl904(cls):
    found = run_contract_checks(entries=[("broken", cls)])
    return [v.message for v in found if v.code == "RPL904"]


def test_rpl904_flips_every_execution_only_field():
    (message,) = _rpl904(_ResidencyTaintedFingerprint)
    assert "execution-only knob 'state_residency'" in message
    (message,) = _rpl904(_ExecutionTaintedFingerprint)
    assert "execution-only knob 'workers'" in message


def test_rpl904_clean_when_no_execution_only_field_leaks():
    assert _rpl904(_DecoratedFingerprint) == []


def test_rpl904_requires_every_other_knob_to_move_the_fingerprint():
    (message,) = _rpl904(_CohortBlindFingerprint)
    assert "ignores 'max_cohort'" in message


def test_amnesiac_defense_load_is_caught_by_rpl905():
    violations = run_contract_checks(entries=[("broken", _AmnesiacDefenseLoad)])
    assert "RPL905" in {v.code for v in violations}


def test_duplicate_registry_entries_yield_one_finding_each():
    """The same class registered under two names (aliases are a real
    registry pattern) must not double-report its contract findings."""
    cls = BROKEN["RPL903"]
    single = run_contract_checks(entries=[("broken", cls)])
    double = run_contract_checks(entries=[("broken", cls), ("alias", cls)])
    assert len(single) >= 1
    assert len(double) == len(single)
    assert {v.code for v in double} == {v.code for v in single}


def test_uninstantiable_algorithm_is_reported_not_raised():
    violations = run_contract_checks(entries=[("broken", _Uninstantiable)])
    assert len(violations) == 1
    assert violations[0].code == "RPL901"
    assert "instantiate" in violations[0].message


def test_contract_rules_have_identity():
    codes = set()
    for rule in CONTRACT_RULES:
        assert rule.kind == "contract"
        assert rule.code.startswith("RPL9") and rule.code not in codes
        codes.add(rule.code)
        assert rule.invariant
