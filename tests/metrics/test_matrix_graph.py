"""Tests for MatrixMetric and GraphMetric."""

import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

import repro
from repro.metrics import GraphMetric, MatrixMetric


def _valid_matrix():
    return np.asarray(
        [
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 1.5],
            [2.0, 1.5, 0.0],
        ]
    )


class TestMatrixMetric:
    def test_roundtrip(self):
        metric = MatrixMetric(_valid_matrix())
        assert len(metric) == 3
        assert metric.distance(0, 2) == pytest.approx(2.0)
        assert np.allclose(metric.full_matrix(), _valid_matrix())

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MatrixMetric(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        bad = _valid_matrix()
        bad[0, 1] = 5.0
        with pytest.raises(ValueError):
            MatrixMetric(bad)

    def test_rejects_nonzero_diagonal(self):
        bad = _valid_matrix()
        bad[1, 1] = 0.3
        with pytest.raises(ValueError):
            MatrixMetric(bad)

    def test_rejects_negative(self):
        bad = _valid_matrix()
        bad[0, 2] = bad[2, 0] = -1.0
        with pytest.raises(ValueError):
            MatrixMetric(bad)

    def test_rejects_infinite(self):
        bad = _valid_matrix()
        bad[0, 2] = bad[2, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            MatrixMetric(bad)

    def test_rejects_nan(self):
        bad = _valid_matrix()
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MatrixMetric(bad)

    def test_validate_flag_skips_checks(self):
        bad = _valid_matrix()
        bad[0, 1] = 5.0
        metric = MatrixMetric(bad, validate=False)  # trusted input path
        assert metric.distance(0, 1) == pytest.approx(5.0)

    def test_words_per_point(self):
        assert MatrixMetric(_valid_matrix(), words_per_point=4).words_per_point == 4

    def test_restrict_is_the_block(self):
        metric = MatrixMetric(_valid_matrix(), words_per_point=4)
        view = metric.restrict([2, 0])
        assert isinstance(view, MatrixMetric)
        np.testing.assert_array_equal(view.matrix, [[0.0, 2.0], [2.0, 0.0]])
        assert view.words_per_point == 4
        assert not np.shares_memory(view.matrix, metric.matrix)
        with pytest.raises(IndexError):
            metric.restrict([0, 3])


class TestGraphMetric:
    def _path_graph(self):
        g = nx.Graph()
        g.add_edge("a", "b", weight=1.0)
        g.add_edge("b", "c", weight=2.0)
        g.add_edge("c", "d", weight=3.0)
        return g

    def test_shortest_path_distances(self):
        metric = GraphMetric(self._path_graph())
        a, d = metric.node_index("a"), metric.node_index("d")
        assert metric.distance(a, d) == pytest.approx(6.0)

    def test_metric_properties(self):
        metric = GraphMetric(self._path_graph())
        mat = metric.full_matrix()
        assert np.allclose(np.diag(mat), 0.0)
        assert np.allclose(mat, mat.T)

    def test_disconnected_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_node(2)
        with pytest.raises(ValueError):
            GraphMetric(g)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GraphMetric(nx.Graph())

    def test_nodes_in_index_order(self):
        metric = GraphMetric(self._path_graph())
        assert len(metric.nodes) == len(metric)

    def test_pairwise_block(self):
        metric = GraphMetric(self._path_graph())
        block = metric.pairwise([0, 1], [2, 3])
        assert block.shape == (2, 2)

    def test_restrict_keeps_whole_graph_paths(self):
        # a and d are not adjacent; their restricted distance is still the
        # shortest path through b and c.
        metric = GraphMetric(self._path_graph(), words_per_point=3)
        a, d = metric.node_index("a"), metric.node_index("d")
        view = metric.restrict([a, d])
        assert isinstance(view, MatrixMetric)
        assert view.distance(0, 1) == 6.0
        assert view.words_per_point == 3


def test_package_imports_without_networkx():
    """Only ``GraphMetric`` needs networkx (the ``graph`` extra): the package
    and the cluster runner import with it blocked."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys; sys.modules['networkx'] = None; "
        "import repro, repro.cluster.runner"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
