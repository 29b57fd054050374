"""Tests for the Gonzalez farthest-first traversal."""

import numpy as np
import pytest

from repro.metrics import EuclideanMetric, MatrixMetric
from repro.sequential import gonzalez
from repro.sequential.gonzalez import center_witnesses


class TestGonzalez:
    def test_ordering_is_permutation(self, small_metric):
        result = gonzalez(small_metric, rng=0)
        assert np.array_equal(np.sort(result.ordering), np.arange(len(small_metric)))

    def test_radii_non_increasing(self, small_metric):
        result = gonzalez(small_metric, rng=0)
        radii = result.radii[1:]
        assert np.all(np.diff(radii) <= 1e-9)

    def test_first_radius_is_inf(self, small_metric):
        assert gonzalez(small_metric, rng=0).radii[0] == np.inf

    def test_coverage_radius_non_increasing(self, small_metric):
        result = gonzalez(small_metric, rng=0)
        assert np.all(np.diff(result.coverage_radius) <= 1e-9)

    def test_prefix_2_approximation(self, small_metric, small_cost_matrix):
        # For every r, the coverage radius of the r-prefix is at most twice the
        # optimal r-center cost; check against a brute-force lower bound
        # (any r-center solution has cost >= (r+1)-th Gonzalez radius).
        result = gonzalez(small_metric, rng=3)
        for r in [2, 3, 5]:
            lower_bound = result.radii[r]  # opt(r) >= radii[r] / 2 is the classic bound
            assert result.coverage_radius[r - 1] <= 2 * lower_bound + 1e-9 or (
                result.coverage_radius[r - 1] <= result.radii[r] * 2 + 1e-9
            )

    def test_m_limits_traversal(self, small_metric):
        result = gonzalez(small_metric, m=10, rng=0)
        assert result.ordering.size == 10

    def test_explicit_start(self, small_metric):
        result = gonzalez(small_metric, start=5, rng=0)
        assert result.ordering[0] == 5

    def test_subset_traversal(self, small_metric):
        indices = np.arange(0, 40)
        result = gonzalez(small_metric, indices=indices, rng=0)
        assert set(result.ordering.tolist()) == set(indices.tolist())

    def test_empty_rejected(self, small_metric):
        with pytest.raises(ValueError):
            gonzalez(small_metric, indices=[])

    def test_invalid_m_rejected(self, small_metric):
        with pytest.raises(ValueError):
            gonzalez(small_metric, m=0)

    def test_deterministic_given_start(self, small_metric):
        a = gonzalez(small_metric, start=0)
        b = gonzalez(small_metric, start=0)
        assert np.array_equal(a.ordering, b.ordering)

    def test_two_clusters_second_point_far(self):
        pts = np.vstack([np.zeros((5, 2)), np.full((5, 2), 100.0)])
        metric = EuclideanMetric(pts)
        result = gonzalez(metric, start=0)
        # The second traversed point must come from the far cluster.
        assert result.ordering[1] >= 5


class TestReadOnlySweeps:
    """A metric may serve a sweep as a read-only view of its own storage."""

    def test_matrix_metric_contiguous_traversal(self, small_metric):
        # Every sweep of a whole MatrixMetric is a read-only row view.
        matrix = small_metric.full_matrix()
        metric = MatrixMetric(matrix)
        result = gonzalez(metric, m=5, rng=0)
        reference = gonzalez(small_metric, m=5, rng=0)
        np.testing.assert_array_equal(result.ordering, reference.ordering)
        np.testing.assert_array_equal(result.radii, reference.radii)
        np.testing.assert_array_equal(result.coverage_radius, reference.coverage_radius)
        np.testing.assert_array_equal(metric.full_matrix(), matrix)

    def test_matrix_metric_contiguous_subset(self, small_metric):
        metric = MatrixMetric(small_metric.full_matrix())
        indices = np.arange(20, 70)
        result = gonzalez(metric, indices, m=8, rng=1)
        reference = gonzalez(small_metric, indices, m=8, rng=1)
        np.testing.assert_array_equal(result.ordering, reference.ordering)
        np.testing.assert_array_equal(result.radii, reference.radii)


class TestCenterWitnesses:
    def test_length_and_monotonicity(self, small_metric):
        result = gonzalez(small_metric, rng=0)
        w = center_witnesses(result, k=3, t=10)
        assert w.size == 10
        assert np.all(np.diff(w) <= 1e-9)

    def test_matches_radii(self, small_metric):
        result = gonzalez(small_metric, rng=0)
        w = center_witnesses(result, k=3, t=5)
        assert w[0] == pytest.approx(result.radii[3])
        assert w[4] == pytest.approx(result.radii[7])

    def test_zero_beyond_traversal(self):
        metric = EuclideanMetric(np.random.default_rng(0).normal(size=(6, 2)))
        result = gonzalez(metric, rng=0)
        w = center_witnesses(result, k=4, t=10)
        assert np.all(w[2:] == 0.0)

    def test_invalid_parameters(self, small_metric):
        result = gonzalez(small_metric, rng=0)
        with pytest.raises(ValueError):
            center_witnesses(result, k=0, t=1)
        with pytest.raises(ValueError):
            center_witnesses(result, k=1, t=-1)
