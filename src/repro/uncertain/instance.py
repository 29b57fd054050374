"""A collection of uncertain nodes over a common ground metric."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.compressed_graph import CompressedGraph
from repro.uncertain.collapse import build_compressed_graph
from repro.uncertain.nodes import UncertainNode
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class UncertainInstance:
    """Uncertain clustering input: nodes ``A`` over a ground point set ``P``.

    Attributes
    ----------
    ground_metric:
        Metric over ``P`` (points addressed by index).
    nodes:
        One :class:`UncertainNode` per input node ``j``.
    """

    ground_metric: MetricSpace
    nodes: List[UncertainNode]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("instance needs at least one node")
        n_ground = len(self.ground_metric)
        for node in self.nodes:
            if node.support.max() >= n_ground or node.support.min() < 0:
                raise ValueError("node support refers to points outside the ground metric")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of uncertain nodes (a site's ``n_i`` when it holds this view)."""
        return len(self.nodes)

    @property
    def n_nodes(self) -> int:
        """Number of uncertain nodes."""
        return len(self.nodes)

    @property
    def n_ground_points(self) -> int:
        """Size of the ground point set ``P``."""
        return len(self.ground_metric)

    def node_subset(self, indices: Sequence[int]) -> "UncertainInstance":
        """Instance restricted to the given node indices (shares the ground metric)."""
        indices = np.asarray(indices, dtype=int)
        return UncertainInstance(
            ground_metric=self.ground_metric,
            nodes=[self.nodes[int(i)] for i in indices],
            metadata=dict(self.metadata),
        )

    def encoding_words(self, words_per_point: Optional[int] = None) -> float:
        """Total words needed to transmit every node's distribution (``n * I``)."""
        wpp = self.ground_metric.words_per_point if words_per_point is None else words_per_point
        return float(sum(node.encoding_words(wpp) for node in self.nodes))

    def max_node_words(self, words_per_point: Optional[int] = None) -> float:
        """The paper's per-node encoding size ``I`` (maximum over nodes)."""
        wpp = self.ground_metric.words_per_point if words_per_point is None else words_per_point
        return float(max(node.encoding_words(wpp) for node in self.nodes))

    # ------------------------------------------------------------------
    # Expected-cost matrices
    # ------------------------------------------------------------------

    def expected_cost_matrix(
        self,
        node_indices: Sequence[int],
        point_indices: Sequence[int],
        objective: str = "median",
        tau: Optional[float] = None,
    ) -> np.ndarray:
        """Node-by-point expected assignment costs.

        ``objective="median"`` gives ``d_hat(j, u) = E[d(sigma(j), u)]``,
        ``"means"`` gives ``E[d^2]`` and ``"center"`` also uses ``d_hat`` (the
        per-point objective (2) is a max of expectations).  Passing ``tau``
        switches to the truncated expectation ``rho_tau`` regardless of
        objective (used by Algorithm 4).
        """
        node_indices = np.asarray(node_indices, dtype=int)
        point_indices = np.asarray(point_indices, dtype=int)
        out = np.empty((node_indices.size, point_indices.size), dtype=float)
        objective = str(objective).lower()
        for row, j in enumerate(node_indices):
            node = self.nodes[int(j)]
            if tau is not None:
                out[row] = node.expected_truncated_distances(self.ground_metric, point_indices, tau)
            elif objective == "means":
                out[row] = node.expected_sq_distances(self.ground_metric, point_indices)
            else:
                out[row] = node.expected_distances(self.ground_metric, point_indices)
        return out

    def support_union(self, node_indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Union of the support points of the selected nodes (``P(Z)`` in the paper)."""
        if node_indices is None:
            node_indices = range(self.n_nodes)
        supports = [self.nodes[int(j)].support for j in node_indices]
        return np.unique(np.concatenate(supports)) if supports else np.empty(0, dtype=int)

    def compressed_graph(
        self, objective: str = "median", candidates: Optional[Sequence[int]] = None
    ) -> CompressedGraph:
        """The Definition 5.2 compressed graph over all nodes."""
        return build_compressed_graph(self.nodes, self.ground_metric, objective, candidates)

    # ------------------------------------------------------------------
    # Realizations
    # ------------------------------------------------------------------

    def sample_realization(self, rng: RngLike = None) -> np.ndarray:
        """One joint realization ``sigma``: a ground-point index per node."""
        generator = ensure_rng(rng)
        return np.asarray([node.sample(generator) for node in self.nodes], dtype=int)

    def spread(self) -> float:
        """Aspect ratio ``Delta`` of the ground point set (used by Algorithm 4)."""
        return self.ground_metric.spread()


__all__ = ["UncertainInstance"]
