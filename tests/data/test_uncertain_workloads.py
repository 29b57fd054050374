"""Tests for the uncertain workload generators."""

import numpy as np
import pytest

from repro.data import uncertain_nodes_from_mixture


class TestUncertainFromMixture:
    def test_counts(self):
        wl = uncertain_nodes_from_mixture(40, 5, 3, ground_size=150, rng=0)
        assert wl.instance.n_nodes == 45
        assert wl.n_outlier_nodes == 5
        assert wl.instance.n_ground_points == 150
        assert wl.node_labels.size == 45

    def test_nodes_are_valid_distributions(self):
        wl = uncertain_nodes_from_mixture(30, 3, 3, rng=1)
        for node in wl.instance.nodes:
            assert node.probabilities.sum() == pytest.approx(1.0)
            assert node.support.max() < wl.instance.n_ground_points
            assert np.unique(node.support).size == node.support.size

    def test_outlier_nodes_are_far(self):
        wl = uncertain_nodes_from_mixture(
            60, 10, 3, ground_size=250, separation=12.0, rng=2
        )
        inst = wl.instance
        anchors, costs = [], []
        from repro.uncertain import one_median

        # Outlier nodes should, on average, sit farther from the inlier anchors.
        inlier_anchor_pts = []
        outlier_anchor_pts = []
        for label, node in zip(wl.node_labels, inst.nodes):
            y, _ = one_median(node, inst.ground_metric)
            pt = inst.ground_metric.points[y]
            (inlier_anchor_pts if label >= 0 else outlier_anchor_pts).append(pt)
        inlier_anchor_pts = np.asarray(inlier_anchor_pts)
        outlier_anchor_pts = np.asarray(outlier_anchor_pts)
        inlier_center = inlier_anchor_pts.mean(axis=0)
        assert np.median(np.linalg.norm(outlier_anchor_pts - inlier_center, axis=1)) > np.median(
            np.linalg.norm(inlier_anchor_pts - inlier_center, axis=1)
        )

    def test_deterministic(self):
        a = uncertain_nodes_from_mixture(20, 2, 2, rng=5)
        b = uncertain_nodes_from_mixture(20, 2, 2, rng=5)
        assert np.array_equal(a.node_labels, b.node_labels)
        for na, nb in zip(a.instance.nodes, b.instance.nodes):
            assert np.array_equal(na.support, nb.support)
            assert np.allclose(na.probabilities, nb.probabilities)

    def test_invalid(self):
        with pytest.raises(ValueError):
            uncertain_nodes_from_mixture(2, 0, 5, rng=0)
