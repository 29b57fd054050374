"""End-to-end runs on the structured (non-Gaussian) workloads.

Rings break mean-based intuition, grids produce massive distance ties, and
power-law clusters skew the per-site loads; the protocols should keep their
budgets and quality relationships on all of them.
"""

import numpy as np
import pytest

from repro.analysis import evaluate_centers
from repro.baselines import centralized_reference
from repro.core import distributed_partial_center, distributed_partial_median
from repro.distributed import DistributedInstance, partition_dirichlet
from tests.workloads import grid_with_outliers, powerlaw_clusters_with_outliers, rings_with_outliers


class TestRingsWorkload:
    @pytest.fixture(scope="class")
    def rings(self):
        return rings_with_outliers(70, 3, 18, ring_separation=15.0, radius=3.0, rng=1)

    def test_median_on_rings(self, rings):
        metric = rings.to_metric()
        shards = partition_dirichlet(rings.n_points, 4, alpha=0.8, rng=2)
        instance = DistributedInstance.from_partition(metric, shards, 3, 18, "median")
        result = distributed_partial_median(instance, epsilon=0.5, rng=0)
        realized = evaluate_centers(metric, result.centers, result.outlier_budget, objective="median")
        reference = centralized_reference(metric, 3, 18, objective="median", rng=3)
        assert realized.cost <= 3.0 * reference.cost
        # Centers must be ring points, not scattered outliers.
        for c in result.centers:
            assert rings.labels[c] >= 0

    def test_center_on_rings(self, rings):
        metric = rings.to_metric()
        shards = partition_dirichlet(rings.n_points, 4, alpha=0.8, rng=2)
        instance = DistributedInstance.from_partition(metric, shards, 3, 18, "center")
        result = distributed_partial_center(instance, rng=0)
        realized = evaluate_centers(metric, result.centers, 18, objective="center")
        # Each ring has radius ~3; covering a ring from one of its points costs
        # at most ~2 * radius (diameter), far below the outlier distances.
        assert realized.cost <= 3 * 2 * 3.0


class TestGridWorkload:
    def test_median_on_grid_with_ties(self):
        workload = grid_with_outliers(14, 16, jitter=0.0, rng=4)  # exact ties everywhere
        metric = workload.to_metric()
        shards = partition_dirichlet(workload.n_points, 3, alpha=1.0, rng=5)
        instance = DistributedInstance.from_partition(metric, shards, 4, 16, "median")
        result = distributed_partial_median(instance, epsilon=0.5, rng=0)
        assert result.rounds == 2
        assert sum(result.metadata["t_allocated"]) <= 2 * 16
        realized = evaluate_centers(metric, result.centers, result.outlier_budget, objective="median")
        # Grid spacing is 1; average service distance must stay at grid scale.
        served = workload.n_points - result.outlier_budget
        assert realized.cost / served < 6.0


class TestPowerlawWorkload:
    def test_means_on_powerlaw(self):
        workload = powerlaw_clusters_with_outliers(400, 5, 25, exponent=1.8, rng=6)
        metric = workload.to_metric()
        shards = partition_dirichlet(workload.n_points, 5, alpha=0.5, rng=7)
        instance = DistributedInstance.from_partition(metric, shards, 5, 25, "means")
        result = distributed_partial_median(instance, epsilon=0.5, rng=0)
        reference = centralized_reference(metric, 5, 25, objective="means", rng=8)
        realized = evaluate_centers(metric, result.centers, result.outlier_budget, objective="means")
        assert realized.cost <= 6.0 * reference.cost
        # Tiny clusters must not be starved of centers entirely: the realized
        # per-point cost should stay near the cluster scale.
        served = workload.n_points - result.outlier_budget
        assert realized.cost / served < 25.0
