"""Tests for the Theorem 3.10 sub-quadratic centralized simulation."""

import numpy as np
import pytest

from repro.analysis import evaluate_centers
from repro.baselines import centralized_reference
from repro.core import subquadratic_partial_clustering
from repro.core.subquadratic import default_piece_count


class TestDefaultPieceCount:
    def test_grows_sublinearly(self):
        assert default_piece_count(1000, 3) < 1000
        assert default_piece_count(8000, 3) > default_piece_count(1000, 3)

    def test_pieces_keep_minimum_size(self):
        s = default_piece_count(100, 10)
        assert 100 // s >= 5  # at least a handful of points per piece

    def test_tiny_input(self):
        assert default_piece_count(3, 1) == 1


class TestSubquadratic:
    def test_output_budgets(self, small_metric):
        result = subquadratic_partial_clustering(small_metric, 3, 15, rng=0)
        assert result.centers.size >= 1
        assert result.objective == "median"
        assert result.outlier_budget == int(1.5 * 15)
        assert result.n_pieces >= 1

    def test_quality_close_to_direct_solver(self, small_metric):
        result = subquadratic_partial_clustering(small_metric, 3, 15, rng=0)
        realized = evaluate_centers(
            small_metric, result.centers, result.outlier_budget, objective="median"
        )
        reference = centralized_reference(small_metric, 3, 15, objective="median", rng=1)
        assert realized.cost <= 3.0 * reference.cost

    def test_explicit_piece_count(self, small_metric):
        result = subquadratic_partial_clustering(small_metric, 3, 15, n_pieces=5, rng=0)
        assert result.n_pieces == 5
        assert len(result.metadata["piece_sizes"]) == 5

    def test_center_objective(self, small_metric):
        result = subquadratic_partial_clustering(small_metric, 3, 15, objective="center", rng=0)
        assert result.objective == "center"
        assert result.outlier_budget == 15

    def test_timings_populated(self, small_metric):
        result = subquadratic_partial_clustering(small_metric, 3, 15, rng=0)
        assert result.wall_time > 0
        assert result.site_time_total > 0
        assert result.coordinator_time > 0

    def test_invalid_pieces(self, small_metric):
        with pytest.raises(ValueError):
            subquadratic_partial_clustering(small_metric, 3, 15, n_pieces=0)

    def test_deterministic_given_seed(self, small_metric):
        a = subquadratic_partial_clustering(small_metric, 3, 15, rng=7)
        b = subquadratic_partial_clustering(small_metric, 3, 15, rng=7)
        assert np.array_equal(a.centers, b.centers)
