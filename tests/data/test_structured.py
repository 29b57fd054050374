"""Tests for the structured workload generators."""

import numpy as np
import pytest

from tests.workloads import (
    grid_with_outliers,
    powerlaw_clusters_with_outliers,
    rings_with_outliers,
)


class TestRings:
    def test_counts_and_labels(self):
        wl = rings_with_outliers(40, 3, 12, rng=0)
        assert wl.n_points == 40 * 3 + 12
        assert wl.n_outliers == 12
        assert set(np.unique(wl.labels)) == {-1, 0, 1, 2}

    def test_ring_radius(self):
        wl = rings_with_outliers(60, 1, 0, radius=5.0, noise=0.01, rng=0)
        center = wl.centers[0]
        radii = np.linalg.norm(wl.points - center, axis=1)
        assert np.allclose(radii, 5.0, atol=0.2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            rings_with_outliers(0, 1, 0)


class TestGrid:
    def test_counts(self):
        wl = grid_with_outliers(6, 8, rng=0)
        assert wl.n_points == 36 + 8
        assert wl.n_outliers == 8

    def test_small_side_rejected(self):
        with pytest.raises(ValueError):
            grid_with_outliers(1, 0)

    def test_jitter_small(self):
        wl = grid_with_outliers(5, 0, jitter=0.0, rng=0)
        # With zero jitter, points are exactly on integer coordinates.
        assert np.allclose(wl.points, np.round(wl.points))


class TestPowerlaw:
    def test_counts(self):
        wl = powerlaw_clusters_with_outliers(300, 5, 20, rng=0)
        assert wl.n_points == 320
        assert wl.n_outliers == 20

    def test_sizes_are_skewed(self):
        wl = powerlaw_clusters_with_outliers(1000, 5, 0, exponent=2.0, rng=0)
        sizes = np.asarray([np.sum(wl.labels == c) for c in range(5)])
        assert sizes.max() > 4 * sizes.min()

    def test_every_cluster_nonempty(self):
        wl = powerlaw_clusters_with_outliers(50, 8, 0, rng=0)
        assert np.all([np.any(wl.labels == c) for c in range(8)])

    def test_invalid(self):
        with pytest.raises(ValueError):
            powerlaw_clusters_with_outliers(5, 10, 0)
        with pytest.raises(ValueError):
            powerlaw_clusters_with_outliers(50, 5, 0, exponent=0.0)
