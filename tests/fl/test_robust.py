"""Robust aggregation policies, the ``--defense`` grammar, the
server-boundary ``validate_update`` gate, and ensemble member filtering.

The load-bearing invariants: ``defense="mean"`` replays an undefended run's
fingerprint bitwise; malformed payloads surface as ``rejected-update`` —
never a crash, never silent aggregation."""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms import ALGORITHM_REGISTRY, FLConfig
from repro.fl.algorithms.fedavg import FedAvg
from repro.fl.robust import (
    DEFENSE_KINDS,
    AutoClipAggregator,
    CoordinateMedianAggregator,
    KrumAggregator,
    MeanAggregator,
    NormClipAggregator,
    RobustAggregator,
    TrimmedMeanAggregator,
    confidence_member_weights,
    default_defenses,
    parse_defense,
    validate_update,
)
from repro.nn.models import build_model
from repro.nn.serialization import FlatState, average_states, state_layout
from repro.runtime.runtime import FAILURE_REASONS, REJECTED_UPDATE


@pytest.fixture(scope="module")
def micro_fed():
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    return build_federated_dataset(
        world, num_clients=6, n_train=240, n_test=60, n_public=60, alpha=0.5, seed=0
    )


@pytest.fixture(scope="module")
def micro_model_fn():
    return functools.partial(
        build_model, "mlp", num_classes=4, in_channels=1, image_size=8,
        width_mult=0.25, seed=1,
    )


def _states(values, key="w", dtype=np.float32):
    """One single-tensor state dict per scalar/array in ``values``."""
    return [OrderedDict({key: np.asarray(v, dtype=dtype)}) for v in values]


class TestParseDefense:
    def test_none_and_empty(self):
        assert parse_defense(None) is None
        assert parse_defense("") is None
        assert parse_defense("  ") is None

    def test_passthrough(self):
        agg = TrimmedMeanAggregator(0.3)
        assert parse_defense(agg) is agg

    @pytest.mark.parametrize("kind", DEFENSE_KINDS)
    def test_every_kind_parses(self, kind):
        agg = parse_defense(kind)
        assert isinstance(agg, RobustAggregator)
        assert agg.kind == kind

    def test_parameterized_forms(self):
        assert parse_defense("clip=2.5").tau == 2.5
        assert parse_defense("trimmed=0.3").beta == 0.3
        assert parse_defense("krum=2").f == 2

    def test_unknown_kind_lists_options(self):
        with pytest.raises(ValueError) as err:
            parse_defense("geomedian")
        msg = str(err.value)
        assert "geomedian" in msg
        for kind in DEFENSE_KINDS:
            assert kind in msg

    def test_parameterless_kinds_reject_parameters(self):
        with pytest.raises(ValueError, match="no parameter"):
            parse_defense("median=3")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            parse_defense("trimmed=0.6")  # >= 0.5
        with pytest.raises(ValueError):
            parse_defense("clip=-1")
        with pytest.raises(ValueError):
            parse_defense("krum=-1")

    def test_default_defenses_cover_every_kind(self):
        assert sorted(d.kind for d in default_defenses()) == sorted(DEFENSE_KINDS)


class TestMeanAggregator:
    def test_bitwise_delegation_to_average_states(self):
        states = _states([[1.0, 2.0], [3.0, 5.0], [0.0, -1.0]])
        weights = [1.0, 2.0, 3.0]
        out = MeanAggregator().combine(states, weights)
        ref = average_states(list(states), weights)
        np.testing.assert_array_equal(out["w"], ref["w"])

    def test_does_not_filter_ensemble_members(self):
        base = [0.5, 0.5]
        stacked = np.zeros((2, 3, 4))
        assert MeanAggregator().member_filter(stacked, base) is base


class TestNormClip:
    def test_clip_factor(self):
        agg = NormClipAggregator(tau=2.0)
        assert agg._clip_factor(1.0, 2.0) == 1.0  # inside the ball
        assert agg._clip_factor(4.0, 2.0) == 0.5
        assert agg._clip_factor(0.0, 2.0) == 1.0
        assert agg._clip_factor(4.0, None) == 1.0

    def test_outlier_delta_is_shrunk(self):
        ref = _states([[0.0, 0.0]])[0]
        honest = _states([[1.0, 0.0]])[0]
        attacker = _states([[100.0, 0.0]])[0]
        out = NormClipAggregator(tau=1.0).combine([honest, attacker], None, reference=ref)
        # both deltas land on the unit ball: mean is (1 + 1) / 2 = 1
        np.testing.assert_allclose(out["w"], [1.0, 0.0], atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormClipAggregator(tau=0.0)


class TestAutoClip:
    def test_first_round_does_not_clip(self):
        agg = AutoClipAggregator()
        states = _states([[3.0], [5.0]])
        out = agg.combine(states, None, reference=_states([[0.0]])[0])
        np.testing.assert_allclose(out["w"], [4.0])
        assert agg.state()["tau"] == 4.0  # median norm, armed for round 2

    def test_second_round_clips_to_learned_median(self):
        ref = _states([[0.0]])[0]
        agg = AutoClipAggregator()
        agg.combine(_states([[1.0], [1.0]]), None, reference=ref)  # tau := 1
        out = agg.combine(_states([[10.0], [1.0]]), None, reference=ref)
        np.testing.assert_allclose(out["w"], [1.0])  # attacker clipped 10 → 1

    def test_state_round_trip(self):
        a = AutoClipAggregator()
        a.combine(_states([[2.0], [6.0]]), None, reference=_states([[0.0]])[0])
        b = AutoClipAggregator()
        b.load_state(a.state())
        assert b._tau == a._tau
        fresh = AutoClipAggregator()
        fresh.load_state({"tau": None})
        assert fresh._tau is None


class TestTrimmedMean:
    def test_drops_extremes(self):
        states = _states([[0.0], [1.0], [2.0], [3.0], [100.0]])
        out = TrimmedMeanAggregator(beta=0.2).combine(states, None)
        np.testing.assert_allclose(out["w"], [2.0])  # mean of {1, 2, 3}

    def test_zero_trim_is_plain_mean(self):
        states = _states([[1.0], [5.0]])
        out = TrimmedMeanAggregator(beta=0.0).combine(states, None)
        np.testing.assert_allclose(out["w"], [3.0])

    @settings(max_examples=100, deadline=None)
    @given(beta=st.floats(0.0, 0.5, exclude_max=True))
    @example(beta=float(np.nextafter(0.5, 0.0)))
    def test_at_least_one_member_survives(self, beta):
        """β < 0.5 gives 2·floor(β·m) < m: for every cohort size the trim
        keeps a non-empty middle — here the mean of 0..m−1 trimmed
        symmetrically, (m − 1) / 2 exactly."""
        for m in range(1, 65):
            values = np.random.default_rng(m).permutation(m)
            states = _states([[v] for v in values], dtype=np.float64)
            out = TrimmedMeanAggregator(beta).combine(states, None)
            assert out["w"][0] == (m - 1) / 2, (beta, m)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(beta=0.5)
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(beta=-0.1)

    def test_preserves_dtype(self):
        states = _states([[1.0], [2.0]], dtype=np.float32)
        assert TrimmedMeanAggregator(0.2).combine(states, None)["w"].dtype == np.float32


class TestCoordinateMedian:
    def test_per_coordinate(self):
        states = _states([[0.0, 10.0], [1.0, 20.0], [50.0, 30.0]])
        out = CoordinateMedianAggregator().combine(states, None)
        np.testing.assert_allclose(out["w"], [1.0, 20.0])


class TestKrum:
    def test_selects_inside_the_honest_cluster(self):
        honest = [[1.0, 1.0], [1.1, 0.9], [0.9, 1.1], [1.0, 0.95]]
        attacker = [[50.0, -50.0]]
        states = _states(honest + attacker)
        out = KrumAggregator(f=1).combine(states, None)
        # the winner is one of the honest members, never the attacker
        assert abs(float(out["w"][0])) < 2.0

    def test_single_member_passthrough(self):
        states = _states([[3.0, 4.0]])
        out = KrumAggregator(f=1).combine(states, None)
        np.testing.assert_array_equal(out["w"], [3.0, 4.0])
        out["w"][0] = 99.0  # returned copy must not alias the input
        assert states[0]["w"][0] == 3.0

    def test_tiny_cohort_fails_open(self):
        states = _states([[0.0], [1.0]])
        out = KrumAggregator(f=5).combine(states, None)
        assert float(out["w"][0]) in (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            KrumAggregator(f=-1)


class TestFlatRules:
    """Every policy computes on flat buffers in the first state's layout.
    Real models give the per-entry results bit for bit; these pin the rule
    where a hand-built state could tell the two apart."""

    def test_column_mean_sums_in_client_order(self):
        # a size-1 entry over nine members: the (K, P) column is summed in
        # client order, not in NumPy's pairwise order for a lone (K,) column
        rng = np.random.default_rng(0)
        states = [
            OrderedDict(w=rng.normal(size=3), s=np.asarray(rng.normal())) for _ in range(9)
        ]
        out = TrimmedMeanAggregator(0.0).combine(states, None)
        total = 0.0
        for state in states:
            total += float(state["s"])
        assert out["s"] == total / 9
        assert out["s"].shape == ()

    def test_reference_is_flattened_into_the_first_states_layout(self):
        ref = OrderedDict(a=np.zeros(2, np.float32), b=np.ones(3, np.float32))
        reordered = OrderedDict(b=ref["b"], a=ref["a"])
        states = [
            OrderedDict(a=np.full(2, v, np.float32), b=np.full(3, -v, np.float32))
            for v in (1.0, 40.0)
        ]
        for make in (lambda: NormClipAggregator(tau=2.0), AutoClipAggregator):
            want = make().combine(states, None, reference=ref)
            got = make().combine(states, None, reference=reordered)
            assert list(got) == ["a", "b"]
            for k in want:
                np.testing.assert_array_equal(got[k], want[k])

    @pytest.mark.parametrize("agg", default_defenses(), ids=lambda a: a.kind)
    def test_every_policy_returns_the_first_states_layout(self, agg):
        states = [
            OrderedDict(w=np.full((2, 2), v, np.float32), n=np.asarray(3, np.int64))
            for v in (1.0, 2.0, 3.0, 4.0)
        ]
        reordered = [OrderedDict(n=s["n"], w=s["w"]) for s in states[1:]]
        out = agg.combine(states[:1] + reordered, [1.0] * 4, reference=states[0])
        assert isinstance(out, FlatState) and out.layout is state_layout(states[0])
        assert out["w"].dtype == np.float32 and out["n"].dtype == np.int64


def _payloads(arr, ref_arr=None, key="state"):
    p = {key: OrderedDict(w=np.asarray(arr, dtype=np.float32))}
    ref = None if ref_arr is None else OrderedDict(w=np.asarray(ref_arr, dtype=np.float32))
    return p, ref


class TestValidateUpdate:
    def test_clean_update_admitted(self):
        p, ref = _payloads([1.0, 2.0], [0.0, 0.0])
        assert validate_update(p, reference=ref) is None

    def test_nan_rejected(self):
        p, _ = _payloads([1.0, np.nan])
        assert "non-finite" in validate_update(p)

    def test_inf_rejected_in_any_payload(self):
        p, _ = _payloads([np.inf, 0.0], key="logits")
        assert "non-finite" in validate_update(p)

    def test_non_mapping_payload_rejected(self):
        assert "expected a state dict" in validate_update({"state": [1, 2, 3]})

    def test_object_dtype_rejected(self):
        p = {"state": OrderedDict(w=np.array([object()]))}
        assert "object-dtype" in validate_update(p)

    def test_key_mismatch_rejected(self):
        p = {"state": OrderedDict(w=np.zeros(2, dtype=np.float32))}
        ref = OrderedDict(
            w=np.zeros(2, dtype=np.float32), b=np.zeros(1, dtype=np.float32)
        )
        reason = validate_update(p, reference=ref)
        assert "key mismatch" in reason and "b" in reason

    def test_shape_mismatch_rejected(self):
        p, _ = _payloads([1.0, 2.0, 3.0])
        _, ref = _payloads(None, [0.0, 0.0])
        assert "shape" in validate_update(p, reference=ref)

    def test_float_width_is_lenient_int_is_not(self):
        ref = OrderedDict(w=np.zeros(2, dtype=np.float64))
        narrow = {"state": OrderedDict(w=np.zeros(2, dtype=np.float32))}
        assert validate_update(narrow, reference=ref) is None  # codec decode
        intp = {"state": OrderedDict(w=np.zeros(2, dtype=np.int64))}
        assert "dtype" in validate_update(intp, reference=ref)

    def test_norm_ceiling(self):
        p, ref = _payloads([3.0, 4.0], [0.0, 0.0])  # delta norm 5
        assert validate_update(p, reference=ref, norm_ceiling=10.0) is None
        reason = validate_update(p, reference=ref, norm_ceiling=4.0)
        assert "ceiling" in reason

    def test_delta_payloads_skip_the_signature_check(self):
        p = {"control": OrderedDict(c=np.ones(3, dtype=np.float32))}
        _, ref = _payloads(None, [0.0, 0.0])
        assert validate_update(p, reference=ref, norm_ceiling=0.1) is None

    @pytest.mark.parametrize(
        "sent, expected, values, verdict",
        [
            ("float16", "float32", [1.0, 2.0], None),
            ("float32", "float64", [1.0, 2.0], None),
            ("float64", "float16", [1.0, 2.0], None),
            ("float32", "float32", [1.0, 2.0], None),
            ("int64", "int64", [1, 2], None),
            ("uint8", "uint8", [1, 2], None),
            ("int64", "float32", [1, 2], "dtype"),
            ("float32", "int64", [1.0, 2.0], "dtype"),
            ("int32", "int64", [1, 2], "dtype"),
            ("uint8", "float32", [1, 2], "dtype"),
            ("float16", "float32", [np.nan, 0.0], "non-finite"),
            ("float32", "float32", [np.inf, 0.0], "non-finite"),
            ("float64", "float64", [0.0, -np.inf], "non-finite"),
            ("object", "float32", [1.0, 2.0], "object-dtype"),
        ],
    )
    def test_dtype_verdicts(self, sent, expected, values, verdict):
        """The float test is ``dtype.kind == "f"``: the same verdicts as
        ``np.issubdtype(dtype, np.floating)`` on every wire dtype."""
        p = {"state": OrderedDict(w=np.array(values, dtype=sent))}
        ref = OrderedDict(w=np.zeros(2, dtype=expected))
        reason = validate_update(p, reference=ref, norm_ceiling=1e6)
        if verdict is None:
            assert reason is None
        else:
            assert verdict in reason


class TestConfidenceMemberWeights:
    def _stack(self, members, n=16, c=4, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([rng.normal(scale=s, size=(n, c)) for s in members])

    def test_fails_open_on_a_homogeneous_cohort(self):
        # identical members score identically (MAD = 0): nothing filtered,
        # the base weights come back by identity (bitwise unfiltered path)
        one = np.random.default_rng(0).normal(size=(16, 4))
        stacked = np.stack([one, one, one, one])
        base = [0.1, 0.2, 0.3, 0.4]
        assert confidence_member_weights(stacked, base) is base
        assert confidence_member_weights(stacked, None) is None

    def test_drops_saturated_outlier(self):
        stacked = self._stack([1.0, 1.0, 1.0, 1.0, 1.0])
        stacked[0] *= 1000.0  # saturated garbage: confidence ≈ 1
        w = confidence_member_weights(stacked)
        assert w is not None
        assert w[0] == 0.0 and np.all(w[1:] == 1.0)

    def test_drops_non_finite_member(self):
        stacked = self._stack([1.0, 1.0, 1.0])
        stacked[2, 0, 0] = np.nan
        w = confidence_member_weights(stacked, [1.0, 1.0, 1.0])
        assert w is not None and w[2] == 0.0

    def test_all_non_finite_returns_base(self):
        stacked = np.full((2, 4, 3), np.nan)
        base = [1.0, 1.0]
        assert confidence_member_weights(stacked, base) is base

    def test_composes_base_weights(self):
        stacked = self._stack([1.0, 1.0, 1.0, 1.0])
        stacked[1] *= 1000.0
        w = confidence_member_weights(stacked, [0.5, 0.5, 2.0, 2.0])
        np.testing.assert_allclose(w, [0.5, 0.0, 2.0, 2.0])


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


class TestConfigWiring:
    def test_malformed_defense_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown defense"):
            _config(defense="frobnicate")
        with pytest.raises(ValueError):
            _config(norm_ceiling=0.0)

    def test_mean_defense_replays_undefended_fingerprint(
        self, micro_fed, micro_model_fn
    ):
        make = ALGORITHM_REGISTRY.get("fedavg")
        plain = make(micro_model_fn, micro_fed, _config())
        mean = make(micro_model_fn, micro_fed, _config(defense="mean"))
        hp, hm = plain.run(), mean.run()
        assert hp.fingerprint() == hm.fingerprint()
        sp, sm = plain.global_model.state_dict(), mean.global_model.state_dict()
        for k in sp:
            np.testing.assert_array_equal(sp[k], sm[k], err_msg=k)

    def test_defended_run_differs_under_attack(self, micro_fed, micro_model_fn):
        make = ALGORITHM_REGISTRY.get("fedavg")
        cfg = dict(faults="signflip=0.4")
        undefended = make(micro_model_fn, micro_fed, _config(**cfg))
        defended = make(micro_model_fn, micro_fed, _config(defense="median", **cfg))
        assert undefended.run().fingerprint() != defended.run().fingerprint()

    @pytest.mark.parametrize("name", ["fednova", "scaffold", "fedmd"])
    def test_defense_threads_through_every_family(
        self, name, micro_fed, micro_model_fn
    ):
        algo = ALGORITHM_REGISTRY.get(name)(
            micro_model_fn, micro_fed,
            _config(defense="trimmed=0.3", faults="signflip=0.3"),
        )
        history = algo.run()
        assert history.num_rounds == 2
        assert np.isfinite(history.final_accuracy)


class _NaNUplink(FedAvg):
    """Client 0 uploads a NaN-poisoned payload every round — the gate must
    reject it; the run must neither crash nor aggregate the poison."""

    def client_work(self, round_idx, cid, payload):
        update = super().client_work(round_idx, cid, payload)
        if cid == 0:
            for state in update.states.values():
                for k in state:
                    arr = np.asarray(state[k], dtype=np.float64)
                    arr[...] = np.nan
                    state[k] = arr
        return update


class TestRejectionGate:
    def test_rejected_update_in_taxonomy(self):
        assert REJECTED_UPDATE == "rejected-update"
        assert REJECTED_UPDATE in FAILURE_REASONS

    def test_poisoned_payload_is_rejected_not_aggregated(
        self, micro_fed, micro_model_fn
    ):
        algo = _NaNUplink(
            micro_model_fn, micro_fed, _config(rounds=3, sample_ratio=1.0)
        )
        history = algo.run()  # must not crash
        rejected = [
            cid
            for r in history.records
            for cid, reason in r.failures.items()
            if reason == REJECTED_UPDATE
        ]
        assert rejected == [0, 0, 0]
        # the poison never reached the global model
        for k, v in algo.global_model.state_dict().items():
            assert np.isfinite(v).all(), k
        assert history.total_failures()[REJECTED_UPDATE] == 3

    def test_norm_ceiling_rejects_scaled_attacker(self, micro_fed, micro_model_fn):
        """A ×1000 scaled update blows any sane ceiling; honest updates at
        this scale stay tiny, so only attackers are gated."""
        make = ALGORITHM_REGISTRY.get("fedavg")
        algo = make(
            micro_model_fn, micro_fed,
            _config(
                rounds=2, sample_ratio=1.0,
                faults="scale=1000@0.3", norm_ceiling=50.0,
            ),
        )
        history = algo.run()
        reasons = {
            reason for r in history.records for reason in r.failures.values()
        }
        assert reasons == {REJECTED_UPDATE}
        for r in history.records:
            assert r.num_selected + r.num_failed == r.num_sampled
