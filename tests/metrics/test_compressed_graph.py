"""Tests for the compressed graph of Definition 5.2."""

import numpy as np
import pytest

from repro.metrics import CompressedGraph, EuclideanMetric


@pytest.fixture
def simple_graph(tiny_metric):
    # Three "nodes" anchored at ground points 0, 3 and 6 with collapse costs.
    return CompressedGraph(
        ground_metric=tiny_metric,
        anchor_indices=np.asarray([0, 3, 6]),
        collapse_costs=np.asarray([0.5, 1.0, 2.0]),
    )


class TestCompressedGraph:
    def test_validation_alignment(self, tiny_metric):
        with pytest.raises(ValueError):
            CompressedGraph(tiny_metric, np.asarray([0, 1]), np.asarray([0.1]))

    def test_negative_collapse_rejected(self, tiny_metric):
        with pytest.raises(ValueError):
            CompressedGraph(tiny_metric, np.asarray([0]), np.asarray([-0.1]))

    def test_anchor_out_of_range_rejected(self, tiny_metric):
        with pytest.raises(IndexError):
            CompressedGraph(tiny_metric, np.asarray([99]), np.asarray([0.1]))

    def test_demand_to_point(self, simple_graph, tiny_metric):
        # d_G(p_j, u) = l_j + d(y_j, u)
        expected = 1.0 + tiny_metric.distance(3, 0)
        assert simple_graph.demand_to_point(1, 0) == pytest.approx(expected)

    def test_demand_facility_costs(self, simple_graph, tiny_metric):
        costs = simple_graph.demand_facility_costs([0, 1, 2], [0, 1, 2])
        # Row j, column j': l_j + d(y_j, y_j')
        for j, (anchor_j, l_j) in enumerate(zip([0, 3, 6], [0.5, 1.0, 2.0])):
            for jp, anchor_jp in enumerate([0, 3, 6]):
                expected = l_j + tiny_metric.distance(anchor_j, anchor_jp)
                assert costs[j, jp] == pytest.approx(expected)

    def test_demand_pairwise_symmetric_except_offsets(self, simple_graph):
        block = simple_graph.demand_pairwise([0, 1, 2], [0, 1, 2])
        assert np.allclose(np.diag(block), 0.0)
        assert np.allclose(block, block.T)

    def test_demand_pairwise_formula(self, simple_graph, tiny_metric):
        block = simple_graph.demand_pairwise([0], [1])
        expected = 0.5 + tiny_metric.distance(0, 3) + 1.0
        assert block[0, 0] == pytest.approx(expected)

    def test_tentacle_only_to_own_anchor(self, simple_graph, tiny_metric):
        # Reaching another node's demand vertex always pays both collapse costs,
        # so it is never cheaper than going directly to the anchor.
        d_via_anchor = simple_graph.demand_to_point(0, 3)
        d_to_demand = simple_graph.demand_pairwise([0], [1])[0, 0]
        assert d_to_demand >= d_via_anchor

    def test_facility_point_index(self, simple_graph):
        assert simple_graph.facility_point_index(2) == 6

    def test_zero_collapse_recovers_ground_distances(self, tiny_metric):
        graph = CompressedGraph(
            tiny_metric, np.arange(len(tiny_metric)), np.zeros(len(tiny_metric))
        )
        block = graph.demand_facility_costs(range(len(tiny_metric)), range(len(tiny_metric)))
        assert np.allclose(block, tiny_metric.full_matrix())
