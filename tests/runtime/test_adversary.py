"""Byzantine adversary: attack roles pure in (seed, round, client), the
extended ``--faults`` grammar, per-role payload poisoning semantics, and
bit-identical executor parity under an active attack plan."""

from __future__ import annotations

from collections import Counter, OrderedDict

import numpy as np
import pytest

from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.runtime.adversary import (
    ATTACK_KINDS,
    LABELFLIP,
    AdversaryPlan,
    AttackSpec,
    poison_states,
)
from repro.runtime.executors import (
    BatchedExecutor,
    ParallelExecutor,
    fork_available,
)
from repro.runtime.faults import FaultSpec, parse_fault_spec

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork start method")


class TestAttackSpec:
    def test_defaults_are_null(self):
        assert AttackSpec().is_null

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            AttackSpec(signflip=1.5)
        with pytest.raises(ValueError):
            AttackSpec(noise=-0.1)

    def test_fractions_must_sum_below_one(self):
        AttackSpec(signflip=0.5, scale=0.5)  # exactly 1 is allowed
        with pytest.raises(ValueError, match="sum"):
            AttackSpec(signflip=0.6, scale=0.6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AttackSpec(noise_std=0.0)
        with pytest.raises(ValueError):
            AttackSpec(scale_lambda=float("inf"))

    def test_fractions_follow_canonical_role_order(self):
        spec = AttackSpec(signflip=0.1, freerider=0.2)
        assert tuple(kind for kind, _ in spec.fractions()) == ATTACK_KINDS


class TestGrammar:
    def test_attack_keys_parse(self):
        spec = parse_fault_spec("signflip=0.2,scale=10@0.1")
        assert spec.attacks.signflip == 0.2
        assert spec.attacks.scale == 0.1
        assert spec.attacks.scale_lambda == 10.0
        # attacks poison payloads, not timing: the infra plan stays null
        assert spec.is_null
        assert not spec.attacks.is_null

    def test_param_at_fraction_form(self):
        spec = parse_fault_spec("noise=0.5@0.25")
        assert spec.attacks.noise == 0.25
        assert spec.attacks.noise_std == 0.5

    def test_plain_fraction_form(self):
        spec = parse_fault_spec("freerider=0.3,labelflip=0.1")
        assert spec.attacks.freerider == 0.3
        assert spec.attacks.labelflip == 0.1

    def test_vocabularies_mix_freely(self):
        spec = parse_fault_spec("dropout=0.3,signflip=0.2,loss=0.1")
        assert spec.dropout == 0.3 and spec.uplink_loss == 0.1
        assert spec.attacks.signflip == 0.2
        assert not spec.is_null

    def test_param_form_rejected_on_fraction_only_keys(self):
        with pytest.raises(ValueError, match="param@fraction"):
            parse_fault_spec("signflip=10@0.1")

    def test_unknown_key_error_lists_both_vocabularies(self):
        with pytest.raises(ValueError) as err:
            parse_fault_spec("signflop=0.2")
        msg = str(err.value)
        assert "signflop" in msg
        assert "dropout" in msg  # infrastructure vocabulary
        assert "signflip" in msg  # attack vocabulary


class TestAdversaryPlan:
    SPEC = AttackSpec(signflip=0.2, scale=0.1, freerider=0.1)

    def test_requires_attack_spec(self):
        with pytest.raises(TypeError):
            AdversaryPlan(FaultSpec(), seed=0)

    def test_deterministic_and_order_independent(self):
        a = AdversaryPlan(self.SPEC, seed=7)
        b = AdversaryPlan(self.SPEC, seed=7)
        keys = [(r, c) for r in range(4) for c in range(8)]
        forward = [a.role(r, c) for r, c in keys]
        backward = [b.role(r, c) for r, c in reversed(keys)]
        assert forward == list(reversed(backward))
        assert forward == [a.role(r, c) for r, c in keys]

    def test_seed_changes_schedule(self):
        keys = [(r, c) for r in range(6) for c in range(10)]
        a = AdversaryPlan(self.SPEC, seed=0)
        b = AdversaryPlan(self.SPEC, seed=1)
        assert [a.role(*k) for k in keys] != [b.role(*k) for k in keys]

    def test_role_rates_roughly_match_fractions(self):
        plan = AdversaryPlan(self.SPEC, seed=11)
        roles = Counter(plan.role(r, c) for r in range(50) for c in range(20))
        total = 1000
        assert 0.15 < roles["signflip"] / total < 0.25
        assert 0.06 < roles["scale"] / total < 0.14
        assert 0.06 < roles["freerider"] / total < 0.14
        assert 0.55 < roles[None] / total < 0.65

    def test_null_spec_is_always_honest(self):
        plan = AdversaryPlan(AttackSpec(), seed=3)
        assert all(plan.role(r, c) is None for r in range(5) for c in range(5))

    def test_attack_rng_independent_of_role_draw(self):
        """The noise/permutation stream must not perturb role assignment
        (separate lanes), and must itself be pure in (seed, round, client)."""
        plan = AdversaryPlan(self.SPEC, seed=5)
        before = [plan.role(r, c) for r in range(4) for c in range(6)]
        draws = plan.attack_rng(2, 3).normal(size=8)
        np.testing.assert_array_equal(draws, plan.attack_rng(2, 3).normal(size=8))
        assert before == [plan.role(r, c) for r in range(4) for c in range(6)]


def _state(seed=0):
    rng = np.random.default_rng(seed)
    return OrderedDict(
        w=rng.normal(size=(3, 4)).astype(np.float32),
        b=rng.normal(size=4).astype(np.float32),
        steps=np.array(7, dtype=np.int64),
    )


def _poisoned(role, spec=None, reference=True, seed_state=1):
    plan = AdversaryPlan(spec or AttackSpec(**{role: 0.5}), seed=0)
    ref = _state(0) if reference else None
    states = {"state": _state(seed_state)}
    poison_states(role, states, ref, plan, round_idx=2, client_id=3)
    return states["state"], _state(seed_state), ref


class TestPoisonStates:
    def test_signflip_reflects_through_reference(self):
        out, honest, ref = _poisoned("signflip")
        np.testing.assert_allclose(out["w"], 2.0 * ref["w"] - honest["w"], rtol=1e-6)

    def test_signflip_without_reference_negates(self):
        out, honest, _ = _poisoned("signflip", reference=False)
        np.testing.assert_array_equal(out["w"], -honest["w"])

    def test_scale_amplifies_the_delta(self):
        spec = AttackSpec(scale=0.5, scale_lambda=5.0)
        out, honest, ref = _poisoned("scale", spec=spec)
        expected = ref["b"] + 5.0 * (
            honest["b"].astype(np.float64) - ref["b"].astype(np.float64)
        )
        np.testing.assert_allclose(out["b"], expected.astype(np.float32), rtol=1e-6)

    def test_noise_is_deterministic(self):
        a, honest, _ = _poisoned("noise")
        b, _, _ = _poisoned("noise")
        np.testing.assert_array_equal(a["w"], b["w"])
        assert not np.array_equal(a["w"], honest["w"])

    def test_freerider_uploads_the_reference_verbatim(self):
        out, _, ref = _poisoned("freerider")
        np.testing.assert_array_equal(out["w"], ref["w"])
        np.testing.assert_array_equal(out["b"], ref["b"])

    def test_freerider_without_reference_uploads_zeros(self):
        out, _, _ = _poisoned("freerider", reference=False)
        assert not out["w"].any() and not out["b"].any()

    def test_logitcorrupt_permutes_but_preserves_values(self):
        out, honest, _ = _poisoned("logitcorrupt")
        assert not np.array_equal(out["w"], honest["w"])
        np.testing.assert_array_equal(np.sort(out["w"].ravel()), np.sort(honest["w"].ravel()))

    def test_labelflip_is_a_payload_noop(self):
        out, honest, _ = _poisoned(LABELFLIP)
        for k in honest:
            np.testing.assert_array_equal(out[k], honest[k])

    def test_non_float_tensors_pass_through(self):
        out, honest, _ = _poisoned("signflip")
        np.testing.assert_array_equal(out["steps"], honest["steps"])
        assert out["steps"].dtype == honest["steps"].dtype

    def test_mismatched_payload_attacked_in_its_own_space(self):
        """A delta-shaped payload (keys differ from the global state) must
        not be anchored on the reference — signflip becomes plain negation."""
        plan = AdversaryPlan(AttackSpec(signflip=0.5), seed=0)
        honest = OrderedDict(delta=np.ones(4, dtype=np.float32))
        states = {"control": OrderedDict(honest)}
        poison_states("signflip", states, _state(0), plan, 1, 1)
        np.testing.assert_array_equal(states["control"]["delta"], -honest["delta"])

    def test_mixed_float_widths_follow_the_flat_rule(self):
        """Noise draws one block per float buffer, in buffer order (float32
        entries a and c, then float64 b); logitcorrupt draws one permutation
        per float entry, in key order."""
        honest = OrderedDict(
            a=np.arange(2, dtype=np.float32),
            b=np.arange(3, dtype=np.float64),
            c=np.arange(4, dtype=np.float32),
        )
        spec = AttackSpec(noise=0.5, noise_std=0.5)
        plan = AdversaryPlan(spec, seed=0)
        states = {"state": OrderedDict(honest)}
        poison_states("noise", states, None, plan, 1, 2)
        rng = plan.attack_rng(1, 2)
        n32, n64 = rng.normal(0.0, 0.5, size=6), rng.normal(0.0, 0.5, size=3)
        out = states["state"]
        np.testing.assert_array_equal(out["a"], (honest["a"] + n32[:2]).astype(np.float32))
        np.testing.assert_array_equal(out["c"], (honest["c"] + n32[2:]).astype(np.float32))
        np.testing.assert_array_equal(out["b"], honest["b"] + n64)

        states = {"state": OrderedDict(honest)}
        poison_states("logitcorrupt", states, None, plan, 1, 2)
        rng = plan.attack_rng(1, 2)
        for key in "abc":
            perm = rng.permutation(honest[key].size)
            np.testing.assert_array_equal(states["state"][key], honest[key][perm])

    def test_anchor_is_the_references_own_layout(self):
        """Only a payload in the reference's layout is anchored on it: the
        same keys and shapes in another order are attacked in their own
        space."""
        plan = AdversaryPlan(AttackSpec(signflip=0.5), seed=0)
        ref = _state(0)
        honest = _state(1)
        reordered = OrderedDict((k, honest[k]) for k in reversed(honest))
        states = {"same": OrderedDict(honest), "reordered": reordered}
        poison_states("signflip", states, ref, plan, 1, 1)
        np.testing.assert_allclose(states["same"]["w"], 2.0 * ref["w"] - honest["w"], rtol=1e-6)
        np.testing.assert_array_equal(states["reordered"]["w"], -honest["w"])

    def test_unknown_role_rejected(self):
        plan = AdversaryPlan(AttackSpec(signflip=0.5), seed=0)
        with pytest.raises(ValueError, match="unknown attack role"):
            poison_states("gaslight", {"state": _state()}, None, plan, 0, 0)


def _config(**overrides):
    base = dict(
        rounds=2,
        sample_ratio=0.5,
        local_epochs=1,
        batch_size=16,
        lr=0.05,
        seed=0,
        distill_epochs=1,
    )
    base.update(overrides)
    return FLConfig(**base)


ATTACKS = "signflip=0.2,scale=10@0.1,labelflip=0.2,freerider=0.1"


class TestRuntimeWiring:
    def test_attack_only_spec_never_materializes_the_clock(
        self, micro_fed, micro_model_fn
    ):
        algo = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed, _config(faults="signflip=0.3")
        )
        rt = algo.runtime
        assert rt.adversarial and not rt.faulty
        assert rt.clock is None
        assert rt.attack_role(0, 0) in (None,) + ATTACK_KINDS

    def test_defenseless_attacked_run_differs_from_clean(
        self, micro_fed, micro_model_fn
    ):
        make = ALGORITHM_REGISTRY.get("fedavg")
        clean = make(micro_model_fn, micro_fed, _config())
        attacked = make(micro_model_fn, micro_fed, _config(faults="signflip=0.4"))
        assert clean.run().fingerprint() != attacked.run().fingerprint()

    def test_history_meta_records_defense(self, micro_fed, micro_model_fn):
        algo = ALGORITHM_REGISTRY.get("fedavg")(
            micro_model_fn, micro_fed, _config(defense="trimmed=0.3", norm_ceiling=50.0)
        )
        history = algo.run()
        rt = history.meta["runtime"]
        assert rt["defense"] == "trimmed=0.3"
        assert rt["norm_ceiling"] == 50.0


class TestLabelflipClone:
    """The flipped-label trainer is built on demand from the honest one —
    nothing is cached on the algorithm, so nothing rides in the pool's
    shipped snapshot and client work writes nothing to ``self``."""

    def _check(self, algo, honest, clone):
        x, y = honest.dataset.arrays()
        cx, cy = clone.dataset.arrays()
        assert clone is not honest and type(clone) is type(honest)
        np.testing.assert_array_equal(cx, x)
        np.testing.assert_array_equal(cy, (algo.fed.num_classes - 1) - y)
        # same hyperparameters and seed => the honest batch schedule
        assert {k: v for k, v in vars(clone).items() if k != "dataset"} == {
            k: v for k, v in vars(honest).items() if k != "dataset"
        }
        assert not [name for name in vars(algo) if "labelflip" in name]

    def test_local_trainer(self, micro_fed, micro_model_fn):
        algo = ALGORITHM_REGISTRY.get("scaffold")(
            micro_model_fn, micro_fed, _config(faults="labelflip=1.0")
        )
        honest = algo.trainers[2]
        self._check(algo, honest, algo._client_trainer(0, 2))
        assert algo.trainers[2] is honest  # the honest trainer is untouched
        assert algo._client_trainer(0, 2) is not algo._client_trainer(0, 2)

    def test_mutual_trainer(self, micro_fed, micro_model_fn):
        from repro.core import FedKEMF

        algo = FedKEMF(micro_model_fn, micro_fed, _config(faults="labelflip=1.0"))
        honest = algo.trainers[1]
        self._check(algo, honest, algo._client_trainer(0, 1))

    def test_honest_role_returns_the_bank_entry(self, micro_fed, micro_model_fn):
        algo = ALGORITHM_REGISTRY.get("fedavg")(micro_model_fn, micro_fed, _config())
        assert algo._client_trainer(0, 3) is algo.trainers[3]


def _assert_same_run(a, b):
    ha, hb = a.run(), b.run()
    assert ha.fingerprint() == hb.fingerprint()
    sa, sb = a.global_model.state_dict(), b.global_model.state_dict()
    assert list(sa) == list(sb)
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)


class TestExecutorParityUnderAttack:
    """The acceptance property: an attacked (and defended) run is
    bit-identical across every executor backend."""

    @needs_fork
    @pytest.mark.parametrize("name", ["fedavg", "scaffold"])
    def test_serial_vs_parallel(self, name, micro_fed, micro_model_fn):
        make = ALGORITHM_REGISTRY.get(name)
        cfg = dict(faults=ATTACKS, defense="trimmed=0.3")
        serial = make(micro_model_fn, micro_fed, _config(workers=0, **cfg))
        parallel = make(micro_model_fn, micro_fed, _config(workers=4, **cfg))
        assert isinstance(parallel.runtime.executor, ParallelExecutor)
        _assert_same_run(serial, parallel)

    @needs_fork
    def test_serial_vs_persistent(self, micro_fed, micro_model_fn):
        make = ALGORITHM_REGISTRY.get("fedavg")
        cfg = dict(faults=ATTACKS, defense="median")
        serial = make(micro_model_fn, micro_fed, _config(**cfg))
        pool = make(
            micro_model_fn, micro_fed, _config(workers=4, executor="parallel", **cfg)
        )
        assert isinstance(pool.runtime.executor, ParallelExecutor)
        _assert_same_run(serial, pool)

    def test_serial_vs_batched(self, micro_fed_equal, micro_model_fn):
        """Labelflip clients must peel out of the stacked cohort (they train
        a different label view) without breaking bit-parity."""
        make = ALGORITHM_REGISTRY.get("fedavg")
        cfg = dict(faults=ATTACKS)
        serial = make(micro_model_fn, micro_fed_equal, _config(executor="serial", **cfg))
        batched = make(
            micro_model_fn, micro_fed_equal, _config(executor="batched", **cfg)
        )
        assert isinstance(batched.runtime.executor, BatchedExecutor)
        _assert_same_run(serial, batched)

    def test_serial_vs_batched_fedkemf(self, micro_fed_equal, micro_model_fn):
        from repro.core import FedKEMF

        cfg = dict(faults="signflip=0.2,logitcorrupt=0.2,labelflip=0.2")
        serial = FedKEMF(
            micro_model_fn, micro_fed_equal, _config(executor="serial", **cfg),
            local_model_fns=micro_model_fn,
        )
        batched = FedKEMF(
            micro_model_fn, micro_fed_equal, _config(executor="batched", **cfg),
            local_model_fns=micro_model_fn,
        )
        _assert_same_run(serial, batched)


class TestResumeUnderAttack:
    def test_attacked_defended_resume_is_bit_identical(
        self, micro_fed, micro_model_fn, tmp_path
    ):
        """Autoclip carries mutable cross-round state (the defense case of
        ``tests/fl/test_registry_contract.py``):
        a run killed mid-schedule must resume onto the straight-through
        fingerprint, attacks and all."""
        make = ALGORITHM_REGISTRY.get("fedavg")
        cfg = dict(
            rounds=4, faults=ATTACKS, defense="autoclip", norm_ceiling=1e6
        )
        straight = make(micro_model_fn, micro_fed, _config(**cfg))
        full = straight.run()

        make(micro_model_fn, micro_fed, _config(**cfg)).run(
            2, checkpoint_dir=tmp_path
        )
        resumed = make(micro_model_fn, micro_fed, _config(**cfg))
        got = resumed.run(4, checkpoint_dir=tmp_path, resume_from=True)

        assert got.fingerprint() == full.fingerprint()
        sa = straight.global_model.state_dict()
        sb = resumed.global_model.state_dict()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)
