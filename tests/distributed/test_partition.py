"""Tests for the data partitioners."""

import numpy as np
import pytest

from repro.distributed import (
    partition_balanced,
    partition_dirichlet,
    partition_outliers_concentrated,
    partition_round_robin,
)
from tests.workloads import partition_by_cluster


def _check_is_partition(shards, n):
    allp = np.concatenate(shards)
    assert np.array_equal(np.sort(allp), np.arange(n))
    assert all(s.size > 0 for s in shards)


class TestBalanced:
    def test_partition(self):
        shards = partition_balanced(100, 4, rng=0)
        _check_is_partition(shards, 100)
        sizes = [s.size for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_uneven_division(self):
        shards = partition_balanced(10, 3, rng=0)
        _check_is_partition(shards, 10)

    def test_single_site(self):
        shards = partition_balanced(5, 1, rng=0)
        assert len(shards) == 1
        _check_is_partition(shards, 5)

    def test_more_sites_than_points_rejected(self):
        with pytest.raises(ValueError):
            partition_balanced(3, 5)

    def test_deterministic_given_seed(self):
        a = partition_balanced(50, 4, rng=1)
        b = partition_balanced(50, 4, rng=1)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestRoundRobin:
    def test_partition(self):
        shards = partition_round_robin(10, 3)
        _check_is_partition(shards, 10)
        assert np.array_equal(shards[0], [0, 3, 6, 9])


class TestDirichlet:
    def test_partition(self):
        shards = partition_dirichlet(200, 5, alpha=0.3, rng=0)
        _check_is_partition(shards, 200)

    def test_skew_increases_with_small_alpha(self):
        skewed = partition_dirichlet(500, 5, alpha=0.1, rng=0)
        balanced = partition_dirichlet(500, 5, alpha=50.0, rng=0)
        skew_range = max(s.size for s in skewed) - min(s.size for s in skewed)
        bal_range = max(s.size for s in balanced) - min(s.size for s in balanced)
        assert skew_range >= bal_range

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            partition_dirichlet(10, 2, alpha=0.0)


class TestOutliersConcentrated:
    def test_outliers_land_on_designated_sites(self):
        mask = np.zeros(100, dtype=bool)
        mask[:10] = True
        shards = partition_outliers_concentrated(mask, 4, n_outlier_sites=1, rng=0)
        _check_is_partition(shards, 100)
        outlier_ids = set(np.flatnonzero(mask).tolist())
        assert outlier_ids <= set(shards[0].tolist())

    def test_spread_over_two_sites(self):
        mask = np.zeros(60, dtype=bool)
        mask[:12] = True
        shards = partition_outliers_concentrated(mask, 4, n_outlier_sites=2, rng=0)
        outlier_ids = set(np.flatnonzero(mask).tolist())
        assert outlier_ids <= set(shards[0].tolist()) | set(shards[1].tolist())

    def test_invalid_outlier_site_count(self):
        with pytest.raises(ValueError):
            partition_outliers_concentrated(np.zeros(10, dtype=bool), 3, n_outlier_sites=4)


class TestByCluster:
    def test_partition(self):
        labels = np.repeat(np.arange(6), 20)
        shards = partition_by_cluster(labels, 3, rng=0)
        _check_is_partition(shards, 120)

    def test_clusters_not_split(self):
        labels = np.repeat(np.arange(6), 20)
        shards = partition_by_cluster(labels, 3, rng=0)
        for cluster in range(6):
            members = set(np.flatnonzero(labels == cluster).tolist())
            holders = [i for i, s in enumerate(shards) if members & set(s.tolist())]
            assert len(holders) == 1

    def test_noise_spread(self):
        labels = np.concatenate([np.repeat(np.arange(3), 30), -np.ones(9, dtype=int)])
        shards = partition_by_cluster(labels, 3, rng=0)
        _check_is_partition(shards, labels.size)
