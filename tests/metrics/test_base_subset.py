"""Tests for the MetricSpace defaults and SubsetMetric view."""

import numpy as np
import pytest

from repro.metrics import EuclideanMetric, SubsetMetric


class TestSubsetMetric:
    def test_reindexing(self, tiny_metric):
        subset = tiny_metric.subset([3, 4, 5])
        assert len(subset) == 3
        assert subset.distance(0, 1) == pytest.approx(tiny_metric.distance(3, 4))

    def test_pairwise_matches_parent(self, tiny_metric):
        indices = [1, 3, 6]
        subset = tiny_metric.subset(indices)
        sub_block = subset.pairwise(range(3), range(3))
        parent_block = tiny_metric.pairwise(indices, indices)
        assert np.allclose(sub_block, parent_block)

    def test_words_per_point_inherited(self, tiny_metric):
        assert tiny_metric.subset([0, 1]).words_per_point == tiny_metric.words_per_point

    def test_invalid_indices_rejected(self, tiny_metric):
        with pytest.raises(IndexError):
            tiny_metric.subset([0, 99])

    def test_nested_subsets(self, tiny_metric):
        outer = tiny_metric.subset([0, 2, 4, 6])
        inner = outer.subset([1, 3])
        assert inner.distance(0, 1) == pytest.approx(tiny_metric.distance(2, 6))


class TestMetricDefaults:
    def test_validate_indices_empty_ok(self, tiny_metric):
        out = tiny_metric.validate_indices([])
        assert out.size == 0

    def test_min_positive_distance_excludes_zero(self):
        pts = np.asarray([[0.0], [0.0], [5.0]])
        metric = EuclideanMetric(pts)
        assert metric.min_positive_distance() == pytest.approx(5.0)

    def test_single_point_diameter_zero(self):
        metric = EuclideanMetric(np.asarray([[1.0, 2.0]]))
        assert metric.diameter() == 0.0
        assert metric.spread() == 1.0

    def test_subset_diameter(self, tiny_metric):
        # Restricted to the first cluster, the diameter is small.
        assert tiny_metric.diameter([0, 1, 2]) < 2.0
