"""Tests for the outlier-aware local-search solver."""

import numpy as np
import pytest

from repro.metrics import build_cost_matrix
from repro.sequential import assign_with_outliers, local_search_partial
from repro.sequential.local_search import plus_plus_seeding


class TestPlusPlusSeeding:
    def test_count_and_uniqueness(self, small_cost_matrix, rng):
        seeds = plus_plus_seeding(small_cost_matrix, 5, np.ones(small_cost_matrix.shape[0]), rng)
        assert seeds.size == 5
        assert np.unique(seeds).size == 5

    def test_spreads_across_clusters(self, small_workload, small_cost_matrix, rng):
        seeds = plus_plus_seeding(small_cost_matrix, 3, np.ones(small_cost_matrix.shape[0]), rng)
        labels = {small_workload.labels[s] for s in seeds}
        # With three far-apart clusters, ++-seeding should touch at least two.
        assert len(labels) >= 2

    def test_k_capped_by_facilities(self, rng):
        costs = np.random.default_rng(0).random((10, 3))
        seeds = plus_plus_seeding(costs, 5, np.ones(10), rng)
        assert seeds.size == 3


class TestLocalSearchPartial:
    def test_budgets_respected(self, small_cost_matrix):
        sol = local_search_partial(small_cost_matrix, 3, 15, rng=0)
        assert sol.n_centers <= 3
        assert sol.outlier_weight <= 15 + 1e-9
        assert sol.objective == "median"

    def test_cost_is_consistent_with_assignment(self, small_cost_matrix):
        sol = local_search_partial(small_cost_matrix, 3, 15, rng=0)
        recomputed = assign_with_outliers(
            small_cost_matrix, sol.centers, 15, objective="median"
        ).cost
        assert sol.cost == pytest.approx(recomputed, rel=1e-9)

    def test_beats_random_centers(self, small_cost_matrix, rng):
        sol = local_search_partial(small_cost_matrix, 3, 15, rng=1)
        random_centers = rng.choice(small_cost_matrix.shape[1], size=3, replace=False)
        random_cost = assign_with_outliers(
            small_cost_matrix, random_centers, 15, objective="median"
        ).cost
        assert sol.cost <= random_cost + 1e-9

    def test_recovers_cluster_structure(self, small_workload, small_metric):
        n = small_workload.n_points
        costs = build_cost_matrix(small_metric, range(n), range(n), "median")
        sol = local_search_partial(costs, 3, small_workload.n_outliers, rng=2, max_iter=30)
        # Every returned center should sit inside a true cluster (not an outlier).
        for c in sol.centers:
            assert small_workload.labels[c] >= 0

    def test_means_objective(self, small_metric):
        n = len(small_metric)
        costs = build_cost_matrix(small_metric, range(n), range(n), "means")
        sol = local_search_partial(costs, 3, 15, objective="means", rng=0)
        assert sol.objective == "means"
        assert sol.cost >= 0

    def test_center_objective_rejected(self, small_cost_matrix):
        with pytest.raises(ValueError):
            local_search_partial(small_cost_matrix, 3, 15, objective="center")

    def test_weighted_demands(self):
        costs = np.asarray(
            [
                [0.0, 8.0],
                [8.0, 0.0],
                [9.0, 1.0],
                [100.0, 100.0],
            ]
        )
        weights = np.asarray([5.0, 5.0, 5.0, 1.0])
        sol = local_search_partial(costs, 2, 1, weights=weights, rng=0)
        # The weight-1 far point is the only affordable outlier; the remaining
        # cost is demand 2 served from facility 1 at unit cost 1 and weight 5.
        assert np.array_equal(sol.outlier_indices, [3])
        assert sol.cost == pytest.approx(5.0)

    def test_warm_start(self, small_cost_matrix):
        warm = local_search_partial(small_cost_matrix, 3, 15, rng=0, max_iter=5)
        sol = local_search_partial(
            small_cost_matrix, 3, 15, init_centers=warm.centers, rng=1, max_iter=5
        )
        assert sol.cost <= warm.cost * 1.2

    def test_zero_outliers(self, small_cost_matrix):
        sol = local_search_partial(small_cost_matrix, 4, 0, rng=0)
        assert sol.outlier_indices.size == 0

    def test_k_larger_than_facilities(self):
        costs = np.random.default_rng(1).random((6, 4))
        sol = local_search_partial(costs, 10, 0, rng=0)
        assert sol.n_centers <= 4

    def test_invalid_parameters(self, small_cost_matrix):
        with pytest.raises(ValueError):
            local_search_partial(small_cost_matrix, 0, 1)
        with pytest.raises(ValueError):
            local_search_partial(small_cost_matrix, 1, -1)
        with pytest.raises(ValueError):
            local_search_partial(small_cost_matrix, 1, 0, weights=np.ones(3))

    def test_metadata(self, small_cost_matrix):
        sol = local_search_partial(small_cost_matrix, 3, 15, rng=0)
        assert sol.metadata["method"] == "local_search_partial"
        assert sol.metadata["iterations"] >= 1

    def test_deterministic_given_seed(self, small_cost_matrix):
        a = local_search_partial(small_cost_matrix, 3, 15, rng=7)
        b = local_search_partial(small_cost_matrix, 3, 15, rng=7)
        assert np.array_equal(a.centers, b.centers)
        assert a.cost == pytest.approx(b.cost)
