"""Tests for the centralized reference solver."""

import numpy as np
import pytest

from repro.baselines import centralized_reference
from repro.sequential import assign_with_outliers


class TestCentralizedReference:
    def test_median_budgets(self, small_metric):
        ref = centralized_reference(small_metric, 3, 15, objective="median", rng=0)
        assert ref.n_centers <= 3
        assert ref.outlier_weight <= 15 + 1e-9
        assert ref.metadata["reference"] == "local_search_multi_restart"

    def test_center_uses_charikar(self, small_metric):
        ref = centralized_reference(small_metric, 3, 15, objective="center")
        assert ref.metadata["reference"] == "charikar_full"

    def test_restarts_never_hurt(self, small_metric, small_cost_matrix):
        single = centralized_reference(small_metric, 3, 15, objective="median", n_restarts=1, rng=0)
        multi = centralized_reference(small_metric, 3, 15, objective="median", n_restarts=4, rng=0)
        assert multi.cost <= single.cost + 1e-9

    def test_centers_expressed_globally(self, small_metric):
        ref = centralized_reference(small_metric, 3, 15, objective="median", rng=0)
        assert np.all(ref.centers < len(small_metric))

    def test_subset_solve_relabels_to_global(self, small_metric):
        indices = np.arange(40, 120)
        ref = centralized_reference(
            small_metric, 3, 5, objective="median", indices=indices, rng=0
        )
        assert set(ref.centers.tolist()) <= set(indices.tolist())

    def test_excludes_planted_outliers(self, small_metric, small_workload, small_cost_matrix):
        ref = centralized_reference(small_metric, 3, small_workload.n_outliers, objective="median", rng=0)
        # Reference cost should be far below the no-outlier cost.
        no_outlier_cost = assign_with_outliers(
            small_cost_matrix, ref.centers, 0, objective="median"
        ).cost
        assert ref.cost < no_outlier_cost

    def test_means_objective(self, small_metric):
        ref = centralized_reference(small_metric, 3, 15, objective="means", rng=0)
        assert ref.objective == "means"
