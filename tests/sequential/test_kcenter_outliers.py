"""Tests for the Charikar-style (k, t)-center with outliers."""

import numpy as np
import pytest

from repro.metrics import build_cost_matrix
from repro.sequential import kcenter_with_outliers
from repro.sequential.kcenter_outliers import candidate_radii


class TestCandidateRadii:
    def test_contains_all_distinct_values_when_small(self):
        mat = np.asarray([[0.0, 1.0], [2.0, 3.0]])
        radii = candidate_radii(mat)
        assert set(radii.tolist()) == {0.0, 1.0, 2.0, 3.0}

    def test_subsampling_respects_bounds(self, small_cost_matrix):
        radii = candidate_radii(small_cost_matrix, max_candidates=32)
        assert radii.size <= 32
        assert radii[0] == pytest.approx(small_cost_matrix.min())
        assert radii[-1] == pytest.approx(small_cost_matrix.max())

    def test_sorted(self, small_cost_matrix):
        radii = candidate_radii(small_cost_matrix, max_candidates=50)
        assert np.all(np.diff(radii) >= 0)

    def test_a_zero_radius_has_one_sign_under_every_budget(self):
        """Half the zeros stored as -0.0: which zero ``np.unique`` keeps
        depends on the budget's tiles, yet the radius guess may not."""
        rng = np.random.default_rng(0)
        mat = rng.integers(0, 4, size=(30, 20)).astype(float)
        mat[(mat == 0) & (rng.random(mat.shape) < 0.5)] = -0.0
        guesses = set()
        for budget in (None, 64, 4096):
            assert candidate_radii(mat, memory_budget=budget)[0].hex() == "0x0.0p+0"
            sol = kcenter_with_outliers(mat, 8, 4, memory_budget=budget)
            guesses.add(float(sol.metadata["radius_guess"]).hex())
        assert guesses == {"0x0.0p+0"}


class TestKCenterWithOutliers:
    def test_respects_budgets(self, small_cost_matrix, small_workload):
        sol = kcenter_with_outliers(small_cost_matrix, 3, 15)
        assert sol.n_centers <= 3
        assert sol.outlier_weight <= 15 + 1e-9

    def test_outliers_improve_cost(self, small_cost_matrix):
        with_outliers = kcenter_with_outliers(small_cost_matrix, 3, 15)
        without = kcenter_with_outliers(small_cost_matrix, 3, 0)
        assert with_outliers.cost <= without.cost + 1e-9

    def test_ignores_planted_outliers(self, small_cost_matrix, small_workload):
        sol = kcenter_with_outliers(small_cost_matrix, 3, small_workload.n_outliers)
        planted = set(np.flatnonzero(small_workload.outlier_mask).tolist())
        found = set(sol.outlier_indices.tolist())
        # At least two thirds of the planted outliers should be excluded on a
        # well-separated workload.
        assert len(found & planted) >= int(0.66 * len(planted))

    def test_approximation_vs_planted_structure(self, small_cost_matrix, small_workload):
        # Excluding the planted outliers, the remaining radius should be on the
        # order of the cluster spread (<< the outlier distances).
        sol = kcenter_with_outliers(small_cost_matrix, 3, small_workload.n_outliers)
        inlier_spread = 6 * 0.8  # ~6 sigma of the generating Gaussian
        assert sol.cost < 3 * inlier_spread

    def test_weighted_budget(self):
        costs = np.asarray(
            [
                [0.0, 10.0],
                [10.0, 0.0],
                [50.0, 50.0],
            ]
        )
        weights = np.asarray([1.0, 1.0, 2.0])
        # Budget 1 cannot absorb the weight-2 demand: it stays and dominates.
        sol_small = kcenter_with_outliers(costs, 2, 1, weights=weights)
        assert sol_small.cost == pytest.approx(50.0)
        # Budget 2 can drop it entirely.
        sol_big = kcenter_with_outliers(costs, 2, 2, weights=weights)
        assert sol_big.cost == pytest.approx(0.0)

    def test_a_greedy_that_covers_no_weight_is_infeasible(self):
        # At the smallest radius only the weightless demand 0 is within
        # reach: that greedy opens facility 0 twice and covers nothing, and
        # the search must move on to a radius that covers the other three.
        costs = np.asarray([[0.1, 5, 5], [5, 1, 9], [5, 9, 1], [5, 9, 1.2]])
        sol = kcenter_with_outliers(costs, 2, 0, weights=np.asarray([0.0, 1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(sol.centers, [1, 2])
        assert sol.cost == 1.2
        assert sol.metadata["radius_guess"] == 1.0
        assert sol.outlier_weight == 0.0

    def test_zero_outliers_still_covers(self, small_cost_matrix):
        sol = kcenter_with_outliers(small_cost_matrix, 5, 0)
        assert sol.outlier_indices.size == 0
        assert np.all(sol.assignment >= 0)

    def test_single_center(self, small_cost_matrix):
        sol = kcenter_with_outliers(small_cost_matrix, 1, 0)
        assert sol.n_centers == 1
        assert sol.cost == pytest.approx(small_cost_matrix[:, sol.centers[0]].max())

    def test_invalid_parameters(self, small_cost_matrix):
        with pytest.raises(ValueError):
            kcenter_with_outliers(small_cost_matrix, 0, 1)
        with pytest.raises(ValueError):
            kcenter_with_outliers(small_cost_matrix, 1, -1)
        with pytest.raises(ValueError):
            kcenter_with_outliers(np.ones(3), 1, 0)

    def test_metadata_records_method(self, small_cost_matrix):
        sol = kcenter_with_outliers(small_cost_matrix, 3, 5)
        assert sol.metadata["method"] == "charikar_greedy"
        assert sol.metadata["radius_guess"] is not None

    def test_asymmetric_demand_facility_sets(self, small_metric):
        # Facilities restricted to the first 20 points.
        costs = build_cost_matrix(small_metric, range(len(small_metric)), range(20), "center")
        sol = kcenter_with_outliers(costs, 3, 10)
        assert np.all(sol.centers < 20)
