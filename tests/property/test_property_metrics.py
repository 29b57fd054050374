"""Property-based tests for metric substrates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import CompressedGraph, EuclideanMetric
from repro.uncertain import UncertainNode


@st.composite
def point_clouds(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    d = draw(st.integers(min_value=1, max_value=4))
    pts = draw(
        arrays(
            dtype=float,
            shape=(n, d),
            elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        )
    )
    return pts


class TestEuclideanProperties:
    @given(pts=point_clouds())
    @settings(max_examples=80, deadline=None)
    def test_metric_axioms(self, pts):
        metric = EuclideanMetric(pts)
        mat = metric.full_matrix()
        assert np.all(mat >= 0)
        assert np.allclose(np.diag(mat), 0.0, atol=1e-7)
        assert np.allclose(mat, mat.T, atol=1e-7)

    @given(pts=point_clouds())
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, pts):
        metric = EuclideanMetric(pts)
        mat = metric.full_matrix()
        n = len(metric)
        # Check via one random intermediate point per pair (full check is cubic).
        rng = np.random.default_rng(0)
        mids = rng.integers(0, n, size=n)
        for m in np.unique(mids):
            assert np.all(mat <= mat[:, [m]] + mat[[m], :] + 1e-6)

    @given(pts=point_clouds(), tau=st.floats(min_value=0.0, max_value=50.0), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_truncation_bounded_by_original(self, pts, tau, data):
        # For any uncertain node: max(E[d] - tau, 0) <= rho_tau <= E[d].
        metric = EuclideanMetric(pts)
        n = len(metric)
        support = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                     min_size=1, max_size=n, unique=True))
        weights = data.draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                                     min_size=len(support), max_size=len(support)))
        node = UncertainNode(support=np.asarray(support), probabilities=np.asarray(weights))
        points = np.arange(n)
        plain = node.expected_distances(metric, points)
        trunc = node.expected_truncated_distances(metric, points, tau)
        assert np.all(trunc <= plain + 1e-9)
        assert np.all(trunc >= np.maximum(plain - tau, 0.0) - 1e-9)


class TestCompressedGraphProperties:
    @given(pts=point_clouds(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_demand_distances_dominate_ground_distances(self, pts, data):
        metric = EuclideanMetric(pts)
        n = len(metric)
        n_nodes = data.draw(st.integers(min_value=1, max_value=min(8, n)))
        anchors = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n_nodes, max_size=n_nodes)
        )
        costs = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=n_nodes,
                max_size=n_nodes,
            )
        )
        graph = CompressedGraph(metric, np.asarray(anchors), np.asarray(costs))
        block = graph.demand_facility_costs(range(n_nodes), range(n_nodes))
        ground = metric.pairwise(np.asarray(anchors), np.asarray(anchors))
        # Compressed costs are the ground distance plus the demand's collapse cost.
        assert np.all(block >= ground - 1e-9)
        assert np.allclose(block - ground, np.asarray(costs)[:, None], atol=1e-9)
