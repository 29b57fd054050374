"""Tests for the Euclidean metric."""

import numpy as np
import pytest

from repro.metrics import EuclideanMetric


class TestEuclideanMetric:
    def test_len_and_dim(self, tiny_points):
        metric = EuclideanMetric(tiny_points)
        assert len(metric) == tiny_points.shape[0]
        assert metric.dim == 2

    def test_distance_matches_numpy(self, tiny_points):
        metric = EuclideanMetric(tiny_points)
        for i in range(len(metric)):
            for j in range(len(metric)):
                expected = float(np.linalg.norm(tiny_points[i] - tiny_points[j]))
                assert metric.distance(i, j) == pytest.approx(expected, abs=1e-9)

    def test_pairwise_block_matches_individual(self, tiny_points):
        metric = EuclideanMetric(tiny_points)
        rows, cols = [0, 2, 4], [1, 3]
        block = metric.pairwise(rows, cols)
        assert block.shape == (3, 2)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                assert block[a, b] == pytest.approx(metric.distance(i, j), abs=1e-9)

    def test_distances_from_matches_pairwise(self, tiny_points):
        metric = EuclideanMetric(tiny_points)
        cols = np.arange(len(metric))
        row = metric.distances_from(3, cols)
        block = metric.pairwise([3], cols)[0]
        np.testing.assert_array_equal(row, block)

    def test_self_distance_zero(self, tiny_metric):
        for i in range(len(tiny_metric)):
            assert tiny_metric.distance(i, i) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self, tiny_metric):
        mat = tiny_metric.full_matrix()
        assert np.allclose(mat, mat.T)

    def test_words_per_point_is_dimension(self, tiny_points):
        assert EuclideanMetric(tiny_points).words_per_point == 2

    def test_high_dim_no_negative_sqrt(self, rng):
        # Near-duplicate points stress the a^2+b^2-2ab cancellation.
        base = rng.normal(size=(50, 16))
        pts = np.vstack([base, base + 1e-9])
        metric = EuclideanMetric(pts)
        mat = metric.full_matrix()
        assert np.all(np.isfinite(mat))
        assert np.all(mat >= 0)

    def test_restrict_copies_rows(self, rng):
        metric = EuclideanMetric(rng.normal(size=(30, 5)))
        indices = np.asarray([7, 2, 19, 3])
        view = metric.restrict(indices)
        assert isinstance(view, EuclideanMetric)
        np.testing.assert_array_equal(view.points, metric.points[indices])
        assert not np.shares_memory(view.points, metric.points)
        assert view.words_per_point == metric.words_per_point
        np.testing.assert_array_equal(
            view.pairwise(np.arange(4), np.arange(4)), metric.pairwise(indices, indices)
        )

    def test_diameter_and_spread(self, tiny_metric, tiny_points):
        diffs = tiny_points[:, None, :] - tiny_points[None, :, :]
        expected = float(np.sqrt((diffs**2).sum(axis=-1)).max())
        assert tiny_metric.diameter() == pytest.approx(expected, rel=1e-9)
        assert tiny_metric.spread() > 1.0

    def test_triangle_inequality_on_random_points(self, rng):
        metric = EuclideanMetric(rng.normal(size=(30, 3)))
        mat = metric.full_matrix()
        for m in range(len(metric)):
            assert np.all(mat <= mat[:, [m]] + mat[[m], :] + 1e-9)
