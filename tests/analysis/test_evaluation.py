"""Tests for realized-cost evaluation and outlier recovery."""

import numpy as np
import pytest

from repro.analysis import evaluate_centers, outlier_recovery


class TestEvaluateCenters:
    def test_matches_manual_computation(self, tiny_metric):
        # Centers 0 and 3; budget 1 excludes the far point 6.
        result = evaluate_centers(tiny_metric, [0, 3], 1, objective="median")
        expected = sum(
            min(tiny_metric.distance(i, 0), tiny_metric.distance(i, 3)) for i in range(6)
        )
        assert result.cost == pytest.approx(expected)
        assert np.array_equal(result.outlier_indices, [6])

    def test_zero_budget(self, tiny_metric):
        result = evaluate_centers(tiny_metric, [0], 0, objective="median")
        assert result.outlier_indices.size == 0

    def test_center_objective(self, tiny_metric):
        result = evaluate_centers(tiny_metric, [0, 3], 1, objective="center")
        expected = max(
            min(tiny_metric.distance(i, 0), tiny_metric.distance(i, 3)) for i in range(6)
        )
        assert result.cost == pytest.approx(expected)

    def test_subset_evaluation(self, tiny_metric):
        result = evaluate_centers(tiny_metric, [0], 0, objective="median", indices=[0, 1, 2])
        expected = sum(tiny_metric.distance(i, 0) for i in range(3))
        assert result.cost == pytest.approx(expected)

    def test_assignment_uses_global_ids(self, tiny_metric):
        result = evaluate_centers(tiny_metric, [3, 0], 0, objective="median")
        assert set(np.unique(result.solution.assignment)) <= {0, 3}

    def test_empty_centers_rejected(self, tiny_metric):
        with pytest.raises(ValueError):
            evaluate_centers(tiny_metric, [], 0)

    def test_budget_monotonicity(self, small_metric):
        costs = [
            evaluate_centers(small_metric, [0, 50, 100], t, objective="median").cost
            for t in (0, 5, 10, 20)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))


class TestOutlierRecovery:
    def test_perfect_recovery(self):
        stats = outlier_recovery([1, 2, 3], [1, 2, 3])
        assert stats == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_partial_recovery(self):
        stats = outlier_recovery([1, 2, 7, 8], [1, 2, 3, 4])
        assert stats["precision"] == pytest.approx(0.5)
        assert stats["recall"] == pytest.approx(0.5)

    def test_no_reported(self):
        stats = outlier_recovery([], [1, 2])
        assert stats["precision"] == 0.0
        assert stats["recall"] == 0.0
        assert stats["f1"] == 0.0

    def test_both_empty(self):
        assert outlier_recovery([], [])["f1"] == 1.0
