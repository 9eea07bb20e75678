"""Ensemble strategies (Eq. 5): values, invariants, properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ensemble import (
    ENSEMBLE_REGISTRY,
    ensemble_logits,
    ensemble_max,
    ensemble_mean,
    ensemble_vote,
    member_logits,
    weighted_ensemble_logits,
)
from repro.data.synthetic import make_blobs
from repro.nn.models import MLP


def stacked(seed=0, m=3, n=5, c=4):
    return np.random.default_rng(seed).standard_normal((m, n, c)).astype(np.float32)


class TestStrategies:
    def test_max_is_elementwise_maximum(self):
        s = stacked()
        np.testing.assert_array_equal(ensemble_max(s), s.max(axis=0))

    def test_mean_is_average(self):
        s = stacked()
        np.testing.assert_allclose(ensemble_mean(s), s.mean(axis=0), atol=1e-6)

    def test_vote_counts(self):
        s = np.zeros((3, 2, 3), dtype=np.float32)
        s[0, 0, 1] = 5  # member 0 votes class 1 on sample 0
        s[1, 0, 1] = 5  # member 1 votes class 1
        s[2, 0, 2] = 5  # member 2 votes class 2
        s[:, 1, 0] = 5  # all vote class 0 on sample 1
        votes = ensemble_vote(s)
        np.testing.assert_array_equal(votes[0], [0, 2, 1])
        np.testing.assert_array_equal(votes[1], [3, 0, 0])

    def test_vote_totals_equal_members(self):
        s = stacked(m=5)
        assert (ensemble_vote(s).sum(axis=1) == 5).all()

    def test_single_member_max_mean_identity(self):
        s = stacked(m=1)
        np.testing.assert_array_equal(ensemble_max(s), s[0])
        np.testing.assert_allclose(ensemble_mean(s), s[0], atol=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(2, 6), st.integers(0, 99))
    def test_property_max_dominates_members_and_mean(self, m, n, c, seed):
        s = np.random.default_rng(seed).standard_normal((m, n, c))
        mx = ensemble_max(s)
        assert (mx >= s).all()
        assert (mx >= ensemble_mean(s) - 1e-9).all()

    def test_permutation_invariance(self):
        s = stacked(m=4)
        perm = s[[2, 0, 3, 1]]
        for strat in ("max", "mean", "vote"):
            np.testing.assert_allclose(
                ensemble_logits(s, strat), ensemble_logits(perm, strat), atol=1e-6
            )


class TestDispatch:
    def test_registry_names(self):
        for name in ("max", "mean", "vote", "max-logits", "average-logits", "majority-vote"):
            assert name in ENSEMBLE_REGISTRY

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            ensemble_logits(stacked(), "median")

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            ensemble_logits(np.zeros((2, 3)), "max")
        with pytest.raises(ValueError):
            ensemble_logits(np.zeros((0, 3, 4)), "max")


class TestWeightedEnsembleEdgeCases:
    """Staleness-discounted ensembling (buffered FL) at its boundaries."""

    @pytest.mark.parametrize("strategy", ["max", "mean", "vote"])
    def test_single_member_buffer(self, strategy):
        # A buffer that drained with one update: the member's own logits
        # must come back (up to the weight scaling for max) — no crash on
        # the degenerate M=1 axis.
        s = stacked(m=1)
        out = weighted_ensemble_logits(s, strategy, weights=[0.5])
        assert out.shape == s.shape[1:]
        if strategy == "mean":
            np.testing.assert_array_equal(out, s[0])  # average of one
        if strategy == "max":
            np.testing.assert_array_equal(out, (0.5 * s[0]).astype(s.dtype))
        if strategy == "vote":
            # One member casting 0.5 ballots still wins every argmax slot.
            np.testing.assert_array_equal(out.argmax(axis=1), s[0].argmax(axis=1))

    def test_zero_staleness_weight_silences_member_mean(self):
        s = stacked(m=3)
        out = weighted_ensemble_logits(s, "mean", weights=[1.0, 0.0, 1.0])
        expect = np.average(s, axis=0, weights=[1.0, 0.0, 1.0]).astype(s.dtype)
        np.testing.assert_array_equal(out, expect)
        # The silenced member's logits are irrelevant: perturbing them
        # changes nothing.
        s2 = s.copy()
        s2[1] += 100.0
        np.testing.assert_array_equal(
            weighted_ensemble_logits(s2, "mean", weights=[1.0, 0.0, 1.0]), out
        )

    def test_zero_staleness_weight_silences_member_vote(self):
        s = stacked(m=3)
        out = weighted_ensemble_logits(s, "vote", weights=[1.0, 0.0, 1.0])
        s2 = s.copy()
        s2[1] = -s2[1]  # flip the dead member's votes
        np.testing.assert_array_equal(
            weighted_ensemble_logits(s2, "vote", weights=[1.0, 0.0, 1.0]), out
        )

    def test_weights_need_not_sum_to_one(self):
        # Discounts are raw multipliers, not a distribution; np.average
        # normalizes internally, so scaling every weight is a no-op for
        # mean, and max/vote only care about relative magnitude vs content.
        s = stacked(m=4)
        w = [2.0, 0.5, 1.5, 3.0]  # sums to 7
        out = weighted_ensemble_logits(s, "mean", weights=w)
        expect = np.average(s, axis=0, weights=w).astype(s.dtype)
        np.testing.assert_array_equal(out, expect)
        scaled = weighted_ensemble_logits(s, "mean", weights=[x / 7.0 for x in w])
        np.testing.assert_allclose(scaled, out, rtol=1e-6)

    def test_all_zero_or_negative_weights_rejected(self):
        s = stacked(m=2)
        with pytest.raises(ValueError):
            weighted_ensemble_logits(s, "mean", weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            weighted_ensemble_logits(s, "mean", weights=[1.0, -0.5])
        with pytest.raises(ValueError):
            weighted_ensemble_logits(s, "mean", weights=[1.0])  # wrong arity

    @pytest.mark.parametrize("strategy", ["max", "mean", "vote"])
    def test_unit_weights_delegate_bitwise(self, strategy):
        # The buffered fast path: all-fresh merges must reproduce the
        # synchronous teacher bit for bit, not just approximately.
        ds = make_blobs(24, num_classes=4, dim=8, seed=3)
        models = [MLP(8, 4, seed=s) for s in range(3)]
        s = np.stack([member_logits(m, ds.x, batch_size=16) for m in models])
        unweighted = ensemble_logits(s, strategy)
        np.testing.assert_array_equal(
            weighted_ensemble_logits(s, strategy, weights=[1.0, 1.0, 1.0]),
            unweighted,
        )
        np.testing.assert_array_equal(
            weighted_ensemble_logits(s, strategy, weights=None), unweighted
        )


class TestMemberLogits:
    def test_matches_direct_forward(self):
        ds = make_blobs(40, num_classes=4, dim=8, seed=0)
        m = MLP(8, 4, seed=0)
        out = member_logits(m, ds.x, batch_size=16)
        from repro.nn import no_grad
        from repro.nn.tensor import Tensor

        m.eval()
        with no_grad():
            ref = m(Tensor(ds.x)).data
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_restores_training_flag(self):
        ds = make_blobs(10, num_classes=4, dim=8, seed=0)
        m = MLP(8, 4, seed=0)
        m.train()
        member_logits(m, ds.x)
        assert m.training

    def test_ensemble_of_experts_beats_members(self):
        """Three oracle models, each only knowing some classes: the max
        ensemble must outperform every individual member — the mechanism
        FedKEMF's fusion relies on."""
        ds = make_blobs(300, num_classes=4, dim=8, separation=5.0, seed=0)
        cents = np.stack([ds.x[ds.y == k].mean(axis=0) for k in range(4)])

        def expert(classes):
            m = MLP(8, 4, hidden=(), seed=0)
            lin = m.net[1]
            w = np.zeros((4, 8), dtype=np.float32)
            b = np.full(4, -50.0, dtype=np.float32)
            for k in classes:
                w[k] = 2 * cents[k]
                b[k] = -(cents[k] ** 2).sum()
            lin.weight.data[...] = w
            lin.bias.data[...] = b
            return m

        experts = [expert([0, 1]), expert([1, 2]), expert([2, 3, 0])]
        stacked_l = np.stack([member_logits(m, ds.x) for m in experts])
        member_acc = [(s.argmax(axis=1) == ds.y).mean() for s in stacked_l]
        ens_acc = (ensemble_max(stacked_l).argmax(axis=1) == ds.y).mean()
        assert ens_acc > max(member_acc)
