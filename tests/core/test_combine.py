"""Tests for combining preclustering summaries at the coordinator."""

import numpy as np
import pytest

from repro.core.combine import (
    PreclusterSummary,
    combine_preclusters,
    member_groups,
    realize_output,
    summarize_local_solution,
)
from repro.distributed import DistributedInstance, StarNetwork
from repro.metrics import build_cost_matrix
from repro.sequential import local_search_partial


def _summary(site_id, centers, weights, outliers=()):
    return PreclusterSummary(
        site_id=site_id,
        center_points=np.asarray(centers, dtype=int),
        center_weights=np.asarray(weights, dtype=float),
        outlier_points=np.asarray(outliers, dtype=int),
    )


def _two_site_instance(metric, k, t, objective="median"):
    """Site 0 holds the even points and site 1 the odd ones: local ``j`` is
    global ``2j`` on site 0 and ``2j + 1`` on site 1."""
    n = len(metric)
    shards = [np.arange(0, n, 2), np.arange(1, n, 2)]
    return DistributedInstance.from_partition(metric, shards, k, t, objective)


def _local_solution(site):
    local = np.arange(site.n_points)
    costs = build_cost_matrix(site.local_metric, local, local, "median")
    return local_search_partial(costs, 3, 5, rng=0)


class TestPreclusterSummary:
    def test_transmitted_words(self):
        s = _summary(0, [1, 2], [10, 5], [7, 8, 9])
        # 2 centers * B + 2 counts + 3 outliers * B with B=2.
        assert s.transmitted_words(2) == pytest.approx(2 * 2 + 2 + 3 * 2)

    def test_alignment_validated(self):
        with pytest.raises(ValueError):
            _summary(0, [1, 2], [1.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            _summary(0, [1], [-1.0])


class TestSummarizeLocalSolution:
    def test_roundtrip(self, small_instance):
        site = StarNetwork(small_instance).sites[0]
        solution = _local_solution(site)
        summary = summarize_local_solution(site.site_id, solution)
        assert summary.site_id == 0
        # Weights count every non-outlier point exactly once.
        assert summary.center_weights.sum() + summary.outlier_points.size == site.n_points
        # Every transmitted id is a local id of the site.
        assert np.array_equal(summary.center_points, np.unique(solution.centers))
        assert np.array_equal(summary.outlier_points, solution.outlier_indices)
        assert summary.outlier_points.max() < site.n_points

    def test_ship_outliers_false(self, small_instance):
        site = StarNetwork(small_instance).sites[1]
        summary = summarize_local_solution(site.site_id, _local_solution(site), ship_outliers=False)
        assert summary.outlier_points.size == 0

    def test_members_cover_served_points(self, small_instance):
        site = StarNetwork(small_instance).sites[2]
        solution = _local_solution(site)
        summary = summarize_local_solution(site.site_id, solution)

        def dist(members, c):
            return site.local_metric.pairwise(members, [c])[:, 0]

        groups = member_groups(solution.assignment, summary.center_points, dist)
        # The groups partition the served points, one group per center ...
        assert len(groups) == summary.center_points.size
        union = np.concatenate(groups)
        assert np.array_equal(np.sort(union), solution.served_indices)
        for group, c, w in zip(groups, summary.center_points, summary.center_weights):
            assert group.size == w
            assert np.all(solution.assignment[group] == c)
            # ... each farthest-first, ties in index order.
            d = dist(group, c)
            assert np.all(np.diff(d) <= 0)
        # Without a cost, a group keeps index order.
        plain = member_groups(solution.assignment, summary.center_points)
        assert all(np.array_equal(g, np.sort(h)) for g, h in zip(plain, groups))


class TestCombinePreclusters:
    def test_median_combination(self, small_metric):
        instance = _two_site_instance(small_metric, k=3, t=3)
        summaries = [
            _summary(0, [0, 5], [30, 25], [75, 76]),
            _summary(1, [30, 40], [40, 20], [76]),
        ]
        result = combine_preclusters(instance, summaries, epsilon=1.0, rng=0)
        # Demands are the summaries mapped through the shards, in arrival order.
        assert result.demand_points.tolist() == [0, 10, 150, 152, 61, 81, 153]
        assert result.demand_weights.tolist() == [30, 25, 1, 1, 40, 20, 1]
        assert result.centers_global.size <= 3
        assert set(result.centers_global.tolist()) <= set(result.demand_points.tolist())
        assert result.metadata["n_demands"] == 7

    def test_center_combination_uses_exact_budget(self, small_metric):
        instance = _two_site_instance(small_metric, k=2, t=1, objective="center")
        summaries = [
            _summary(0, [0, 5, 82], [30, 25, 1], []),  # local 82 is 164, likely an outlier
            _summary(1, [30], [40], []),
        ]
        result = combine_preclusters(instance, summaries, rng=0)
        assert result.coordinator_solution.outlier_weight <= 1 + 1e-9

    def test_explicit_outliers_only_from_shipped_points(self, small_metric):
        instance = _two_site_instance(small_metric, k=1, t=4)
        summaries = [_summary(0, [0], [50], [80, 81, 82]), _summary(1, [], [], [80, 81])]
        result = combine_preclusters(instance, summaries, epsilon=0.25, rng=0)
        assert set(result.explicit_outliers.tolist()) <= {160, 161, 162, 163, 164}

    def test_realization_covers_all_members(self, small_metric):
        instance = _two_site_instance(small_metric, k=2, t=1)
        summaries = [_summary(0, [0], [3], [75]), _summary(1, [30], [2], [])]
        result = combine_preclusters(instance, summaries, epsilon=1.0, rng=0)
        outputs = [([np.asarray([2, 1, 0])], np.asarray([75])), ([np.asarray([31, 30])], np.empty(0, int))]
        assignment, outliers = realize_output(
            instance.shards, outputs, result.coordinator_solution, result.facility_points
        )
        # Global ids: site 0's locals 0, 1, 2, 75 and site 1's locals 30, 31.
        assert set(assignment) | set(outliers.tolist()) == {0, 2, 4, 150, 61, 63}
        assert not set(assignment) & set(outliers.tolist())
        assert set(assignment.values()) <= set(result.centers_global.tolist())

    def test_no_summaries_rejected(self, small_instance):
        with pytest.raises(ValueError):
            combine_preclusters(small_instance, [])
