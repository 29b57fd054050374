"""Tests for combining preclustering summaries at the coordinator."""

import numpy as np
import pytest

from repro.core.combine import (
    PreclusterSummary,
    combine_preclusters,
    summarize_local_solution,
)
from repro.distributed import StarNetwork
from repro.metrics import build_cost_matrix
from repro.sequential import local_search_partial


def _summary(site_id, centers, weights, outliers=(), members=None):
    return PreclusterSummary(
        site_id=site_id,
        center_points=np.asarray(centers, dtype=int),
        center_weights=np.asarray(weights, dtype=float),
        outlier_points=np.asarray(outliers, dtype=int),
        members=members,
    )


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
        network = StarNetwork(small_instance)
        site = network.sites[0]
        local = np.arange(site.n_points)
        costs = build_cost_matrix(site.local_metric, local, local, "median")
        solution = local_search_partial(costs, 3, 5, rng=0)
        summary = summarize_local_solution(site, solution)
        assert summary.site_id == 0
        # Weights count every non-outlier point exactly once.
        assert summary.center_weights.sum() + summary.outlier_points.size == site.n_points
        # All transmitted ids are points the site actually owns.
        shard = set(site.shard.tolist())
        assert set(summary.center_points.tolist()) <= shard
        assert set(summary.outlier_points.tolist()) <= shard

    def test_ship_outliers_false(self, small_instance):
        network = StarNetwork(small_instance)
        site = network.sites[1]
        local = np.arange(site.n_points)
        costs = build_cost_matrix(site.local_metric, local, local, "median")
        solution = local_search_partial(costs, 3, 5, rng=0)
        summary = summarize_local_solution(site, solution, ship_outliers=False)
        assert summary.outlier_points.size == 0

    def test_members_cover_served_points(self, small_instance):
        network = StarNetwork(small_instance)
        site = network.sites[2]
        local = np.arange(site.n_points)
        costs = build_cost_matrix(site.local_metric, local, local, "median")
        solution = local_search_partial(costs, 3, 5, rng=0)
        summary = summarize_local_solution(site, solution)
        member_union = set()
        for ids, dists in summary.members.values():
            assert len(ids) == len(dists)
            member_union |= set(np.asarray(ids).tolist())
        served_global = set(site.to_global(solution.served_indices).tolist())
        assert served_global <= member_union


class TestCombinePreclusters:
    def test_median_combination(self, small_metric):
        summaries = [
            _summary(0, [0, 10], [30, 25], [150, 151]),
            _summary(1, [60, 80], [40, 20], [152]),
        ]
        result = combine_preclusters(
            small_metric, summaries, k=3, t=3, objective="median", epsilon=1.0, rng=0
        )
        assert result.centers_global.size <= 3
        assert set(result.centers_global.tolist()) <= {0, 10, 60, 80, 150, 151, 152}
        assert result.metadata["n_demands"] == 7

    def test_center_combination_uses_exact_budget(self, small_metric):
        summaries = [
            _summary(0, [0, 10], [30, 25], []),
            _summary(1, [60, 164], [40, 1], []),  # 164 is likely an outlier point
        ]
        result = combine_preclusters(
            small_metric, summaries, k=2, t=1, objective="center", rng=0
        )
        assert result.coordinator_solution.outlier_weight <= 1 + 1e-9

    def test_explicit_outliers_only_from_shipped_points(self, small_metric):
        summaries = [
            _summary(0, [0], [50], [160, 161, 162, 163, 164]),
        ]
        result = combine_preclusters(
            small_metric, summaries, k=1, t=4, objective="median", epsilon=0.25, rng=0
        )
        assert set(result.explicit_outliers.tolist()) <= {160, 161, 162, 163, 164}

    def test_realization_covers_all_members(self, small_metric):
        members0 = {0: (np.asarray([0, 1, 2]), np.asarray([0.0, 1.0, 2.0]))}
        members1 = {60: (np.asarray([60, 61]), np.asarray([0.0, 0.5]))}
        summaries = [
            _summary(0, [0], [3], [150], members=members0),
            _summary(1, [60], [2], [], members=members1),
        ]
        result = combine_preclusters(
            small_metric, summaries, k=2, t=1, objective="median", epsilon=1.0, rng=0
        )
        covered = set(result.realized_assignment) | set(result.realized_outliers.tolist())
        assert {0, 1, 2, 60, 61, 150} <= covered

    def test_no_summaries_rejected(self, small_metric):
        with pytest.raises(ValueError):
            combine_preclusters(small_metric, [], k=1, t=0)
