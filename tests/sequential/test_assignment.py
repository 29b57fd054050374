"""Tests for nearest-center assignment with weighted outlier trimming."""

import numpy as np
import pytest

from repro.sequential import assign_with_outliers, nearest_center_distances
from repro.sequential.assignment import trim_outliers


@pytest.fixture
def costs():
    # 5 demands x 3 facilities.
    return np.asarray(
        [
            [0.0, 5.0, 9.0],
            [1.0, 4.0, 8.0],
            [6.0, 0.0, 3.0],
            [7.0, 1.0, 2.0],
            [20.0, 20.0, 20.0],  # expensive everywhere: the natural outlier
        ]
    )


class TestNearestCenterDistances:
    def test_single_center(self, costs):
        unit, nearest = nearest_center_distances(costs, [1])
        assert np.allclose(unit, costs[:, 1])
        assert np.all(nearest == 1)

    def test_two_centers(self, costs):
        unit, nearest = nearest_center_distances(costs, [0, 2])
        assert np.allclose(unit, np.minimum(costs[:, 0], costs[:, 2]))
        assert np.array_equal(nearest, [0, 0, 2, 2, 0])

    def test_empty_centers_rejected(self, costs):
        with pytest.raises(ValueError):
            nearest_center_distances(costs, [])


class TestTrimOutliers:
    def test_median_drops_most_expensive(self):
        unit = np.asarray([1.0, 5.0, 2.0])
        w = np.ones(3)
        dropped, cost = trim_outliers(unit, w, 1, "median")
        assert dropped[1] == pytest.approx(1.0)
        assert cost == pytest.approx(3.0)

    def test_partial_drop_of_weighted_demand(self):
        unit = np.asarray([1.0, 10.0])
        w = np.asarray([1.0, 5.0])
        dropped, cost = trim_outliers(unit, w, 2, "median")
        assert dropped[1] == pytest.approx(2.0)
        assert cost == pytest.approx(1.0 + 3 * 10.0)

    def test_center_never_partially_drops(self):
        unit = np.asarray([1.0, 10.0])
        w = np.asarray([1.0, 5.0])
        dropped, cost = trim_outliers(unit, w, 2, "center")
        # The weight-5 demand does not fit in the budget, so the max stays.
        assert dropped[1] == 0.0
        assert cost == pytest.approx(10.0)

    def test_center_full_drop(self):
        unit = np.asarray([1.0, 10.0])
        w = np.asarray([1.0, 5.0])
        dropped, cost = trim_outliers(unit, w, 5, "center")
        assert dropped[1] == pytest.approx(5.0)
        assert cost == pytest.approx(1.0)

    def test_zero_budget(self):
        unit = np.asarray([1.0, 2.0])
        dropped, cost = trim_outliers(unit, np.ones(2), 0, "median")
        assert np.allclose(dropped, 0.0)
        assert cost == pytest.approx(3.0)

    def test_budget_exceeds_total_weight(self):
        unit = np.asarray([1.0, 2.0])
        dropped, cost = trim_outliers(unit, np.ones(2), 10, "median")
        assert cost == pytest.approx(0.0)
        assert dropped.sum() == pytest.approx(2.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            trim_outliers(np.asarray([1.0]), np.asarray([1.0]), -1, "median")

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            trim_outliers(np.asarray([1.0]), np.asarray([-1.0]), 0, "median")

    def test_ties_are_stable(self):
        unit = np.asarray([5.0, 5.0, 5.0])
        dropped, _ = trim_outliers(unit, np.ones(3), 1, "median")
        # Stable sort keeps the first index among equals.
        assert dropped[0] == pytest.approx(1.0)


class TestAssignWithOutliers:
    def test_median_outlier_identified(self, costs):
        sol = assign_with_outliers(costs, [0, 1], 1, objective="median")
        assert np.array_equal(sol.outlier_indices, [4])
        assert sol.cost == pytest.approx(0.0 + 1.0 + 0.0 + 1.0)

    def test_center_objective(self, costs):
        sol = assign_with_outliers(costs, [0, 1], 1, objective="center")
        assert sol.cost == pytest.approx(1.0)
        assert sol.objective == "center"

    def test_zero_budget_serves_everyone(self, costs):
        sol = assign_with_outliers(costs, [0, 1], 0, objective="median")
        assert sol.outlier_indices.size == 0
        assert sol.outlier_weight == 0.0

    def test_weighted(self, costs):
        w = np.asarray([1.0, 1.0, 1.0, 1.0, 3.0])
        sol = assign_with_outliers(costs, [0, 1], 3, weights=w, objective="median")
        assert sol.outlier_weight == pytest.approx(3.0)
        assert np.array_equal(sol.outlier_indices, [4])

    def test_weights_shape_validated(self, costs):
        with pytest.raises(ValueError):
            assign_with_outliers(costs, [0], 0, weights=np.ones(3))

    def test_cost_monotone_in_budget(self, costs):
        costs_at = [
            assign_with_outliers(costs, [0, 1], t, objective="median").cost for t in range(5)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(costs_at, costs_at[1:]))
