"""Shortest-path metric on a weighted undirected graph.

The paper's framework only requires an oracle distance function; a graph
metric exercises the non-Euclidean code path (e.g. road networks or
similarity graphs over documents).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.matrix import MatrixMetric

if TYPE_CHECKING:
    import networkx as nx


class GraphMetric(MetricSpace):
    """All-pairs shortest path distances on a connected weighted graph.

    Distances are materialised eagerly into a dense matrix (the library
    targets instances of at most a few thousand points, matching the paper's
    ``Õ(n_i^2)`` local running times).

    Needs networkx, which the rest of the package does not: install the
    ``graph`` extra (``pip install .[graph]``).
    """

    def __init__(self, graph: nx.Graph, *, weight: str = "weight", words_per_point: int = 1):
        import networkx as nx

        if graph.number_of_nodes() == 0:
            raise ValueError("graph must have at least one node")
        if not nx.is_connected(graph):
            raise ValueError("graph must be connected to induce a finite metric")
        self._nodes = list(graph.nodes())
        self._index = {node: i for i, node in enumerate(self._nodes)}
        n = len(self._nodes)
        matrix = np.zeros((n, n), dtype=float)
        for source, lengths in nx.all_pairs_dijkstra_path_length(graph, weight=weight):
            si = self._index[source]
            for target, dist in lengths.items():
                matrix[si, self._index[target]] = dist
        self._backend = MatrixMetric(matrix, words_per_point=words_per_point, validate=False)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list:
        """Graph nodes in index order."""
        return list(self._nodes)

    @property
    def words_per_point(self) -> int:
        return self._backend.words_per_point

    def node_index(self, node) -> int:
        """Index of a graph node in the metric."""
        return self._index[node]

    def distance(self, i: int, j: int) -> float:
        return self._backend.distance(i, j)

    def pairwise(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        return self._backend.pairwise(rows, cols)

    def full_matrix(self) -> np.ndarray:
        return self._backend.full_matrix()

    def restrict(self, indices: Sequence[int]) -> MatrixMetric:
        """The block of ``indices`` as a :class:`MatrixMetric`.

        Its entries are shortest paths in the whole graph, so the block is
        exact even where a path leaves ``indices``.
        """
        return self._backend.restrict(indices)


__all__ = ["GraphMetric"]
