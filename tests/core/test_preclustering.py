"""Tests for site-local preclustering (geometric grids, cost curves, witnesses)."""

import numpy as np
import pytest

from repro.core import geometric_grid, precluster_site
from repro.core.preclustering import precluster_site_center
from repro.metrics import build_cost_matrix


class TestGeometricGrid:
    def test_contains_endpoints(self):
        grid = geometric_grid(40, rho=2.0)
        assert grid[0] == 0
        assert grid[-1] == 40

    def test_logarithmic_size(self):
        grid = geometric_grid(1000, rho=2.0)
        assert grid.size <= 2 + int(np.log2(1000)) + 1

    def test_rho_controls_density(self):
        coarse = geometric_grid(100, rho=4.0)
        fine = geometric_grid(100, rho=1.2)
        assert fine.size > coarse.size

    def test_t_zero(self):
        assert np.array_equal(geometric_grid(0), [0])

    def test_upper_clipping(self):
        grid = geometric_grid(100, rho=2.0, upper=10)
        assert grid.max() == 10

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            geometric_grid(10, rho=1.0)

    def test_negative_t(self):
        with pytest.raises(ValueError):
            geometric_grid(-1)

    def test_values_strictly_increasing(self):
        grid = geometric_grid(64, rho=2.0)
        assert np.all(np.diff(grid) > 0)


class TestPreclusterSite:
    @pytest.fixture
    def local_costs(self, small_metric):
        indices = np.arange(0, 60)
        return build_cost_matrix(small_metric, indices, indices, "median")

    def test_costs_non_increasing_in_q(self, local_costs):
        pre = precluster_site(local_costs, 4, 12, rng=0)
        assert np.all(np.diff(pre.costs) <= 1e-9)

    def test_grid_is_geometric(self, local_costs):
        pre = precluster_site(local_costs, 4, 12, rng=0)
        assert np.array_equal(pre.grid, geometric_grid(12, upper=60))

    def test_profile_matches_costs_at_vertices(self, local_costs):
        pre = precluster_site(local_costs, 4, 12, rng=0)
        for q, cost in zip(pre.grid, pre.costs):
            # Hull value is a lower bound and coincides at hull vertices.
            assert pre.profile(int(q)) <= cost + 1e-9

    def test_solutions_cached(self, local_costs):
        pre = precluster_site(local_costs, 4, 12, rng=0)
        for q in pre.grid:
            assert int(q) in pre.solutions
            assert pre.solutions[int(q)].outlier_weight <= q + 1e-9

    def test_solution_for_uncached_value(self, local_costs):
        pre = precluster_site(local_costs, 4, 12, rng=0)
        sol = pre.solution_for(3, 4, "median", rng=1)
        assert sol.outlier_weight <= 3 + 1e-9
        assert 3 in pre.solutions

    def test_q_exceeding_site_size_gives_zero_cost(self, small_metric):
        indices = np.arange(0, 10)
        costs = build_cost_matrix(small_metric, indices, indices, "median")
        pre = precluster_site(costs, 2, 20, rng=0)
        assert pre.costs[-1] == pytest.approx(0.0)

    def test_explicit_grid(self, local_costs):
        pre = precluster_site(local_costs, 4, 12, grid=[0, 5, 12], rng=0)
        assert np.array_equal(pre.grid, [0, 5, 12])

    def test_weights_supported(self, local_costs):
        w = np.ones(local_costs.shape[0])
        w[:3] = 4.0
        pre = precluster_site(local_costs, 4, 6, weights=w, rng=0)
        assert np.all(np.diff(pre.costs) <= 1e-9)

    def test_means_objective(self, small_metric):
        indices = np.arange(0, 50)
        costs = build_cost_matrix(small_metric, indices, indices, "means")
        pre = precluster_site(costs, 4, 10, objective="means", rng=0)
        assert pre.metadata["objective"] == "means"


class TestPreclusterSiteCenter:
    def test_witnesses_monotone(self, small_metric):
        local = small_metric.subset(np.arange(0, 70))
        pre = precluster_site_center(local, 3, 12, rng=0)
        assert pre.witnesses.size == 12
        assert np.all(np.diff(pre.witnesses) <= 1e-9)

    def test_marginals_from_grid_conservative(self, small_metric):
        local = small_metric.subset(np.arange(0, 70))
        pre = precluster_site_center(local, 3, 12, rng=0)
        reconstructed = pre.curve.marginals_from_grid(12)
        assert reconstructed.shape == (12,)
        assert np.all(np.diff(reconstructed) <= 1e-9)
        # Reconstruction never underestimates the true witness.
        assert np.all(reconstructed >= pre.witnesses - 1e-9)

    def test_transmitted_words_scale_with_grid(self, small_metric):
        local = small_metric.subset(np.arange(0, 70))
        pre = precluster_site_center(local, 3, 12, rho=2.0, rng=0)
        assert pre.curve.words == 2 * pre.grid.size

    def test_tiny_site(self, small_metric):
        local = small_metric.subset(np.arange(0, 4))
        pre = precluster_site_center(local, 3, 12, rng=0)
        # Witnesses beyond the site's size are zero.
        assert np.all(pre.witnesses[3:] == 0.0)
