"""Evaluation metrics and convergence queries."""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs
from repro.fl.metrics import (
    average_local_accuracy,
    converged_round,
    evaluate_model,
    rounds_to_target,
)
from repro.nn.models import MLP


class TestEvaluateModel:
    def test_range_and_loss(self):
        ds = make_blobs(60, num_classes=4, dim=8, seed=0)
        m = MLP(8, 4, hidden=(8,), seed=0)
        acc, loss = evaluate_model(m, ds)
        assert 0.0 <= acc <= 1.0
        assert loss > 0

    def test_restores_training_mode(self):
        ds = make_blobs(20, num_classes=4, dim=8, seed=0)
        m = MLP(8, 4, seed=0)
        m.train()
        evaluate_model(m, ds)
        assert m.training
        m.eval()
        evaluate_model(m, ds)
        assert not m.training

    def test_batched_equals_full(self):
        ds = make_blobs(70, num_classes=4, dim=8, seed=0)
        m = MLP(8, 4, seed=0)
        acc_small, loss_small = evaluate_model(m, ds, batch_size=7)
        acc_full, loss_full = evaluate_model(m, ds, batch_size=1000)
        assert acc_small == acc_full
        assert abs(loss_small - loss_full) < 1e-4

    def test_perfect_classifier(self):
        """An oracle-initialized linear model must reach ~100% on separable blobs."""
        ds = make_blobs(100, num_classes=3, dim=6, separation=6.0, seed=0)
        m = MLP(6, 3, hidden=(), seed=0)
        cents = np.stack([ds.x[ds.y == k].mean(axis=0) for k in range(3)])
        lin = m.net[1]  # Flatten, Linear
        lin.weight.data[...] = 2 * cents
        lin.bias.data[...] = -(cents**2).sum(axis=1)
        acc, _ = evaluate_model(m, ds)
        assert acc > 0.95


class TestRoundsToTarget:
    def test_first_hit(self):
        assert rounds_to_target([0.1, 0.2, 0.5, 0.4], 0.45) == 3

    def test_hit_on_first_round(self):
        assert rounds_to_target([0.9], 0.5) == 1

    def test_never(self):
        assert rounds_to_target([0.1, 0.2], 0.5) is None

    def test_exact_boundary(self):
        assert rounds_to_target([0.5], 0.5) == 1


class TestConvergedRound:
    def test_plateau_detected(self):
        accs = [0.1, 0.3, 0.5, 0.51, 0.5, 0.51, 0.5, 0.505, 0.5, 0.51]
        conv = converged_round(accs, window=3, tol=0.02)
        assert conv <= 4

    def test_still_improving_returns_last(self):
        accs = list(np.linspace(0.1, 0.9, 12))
        assert converged_round(accs, window=3, tol=0.01) >= 10

    def test_short_series(self):
        assert converged_round([0.2, 0.3], window=5) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            converged_round([])

    def test_monotone_flat(self):
        assert converged_round([0.5] * 10, window=3, tol=0.01) == 1


class TestAverageLocal:
    def test_mean_of_per_client(self):
        ds_a = make_blobs(40, num_classes=4, dim=8, seed=0)
        ds_b = make_blobs(40, num_classes=4, dim=8, seed=1)
        m = MLP(8, 4, seed=0)
        avg = average_local_accuracy([m, m], [ds_a, ds_b])
        ia = evaluate_model(m, ds_a)[0]
        ib = evaluate_model(m, ds_b)[0]
        assert abs(avg - (ia + ib) / 2) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            average_local_accuracy([MLP(8, 4, seed=0)], [])
