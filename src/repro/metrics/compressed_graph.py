"""Compressed graph of Definition 5.2 — the "clique with tentacles".

Clustering uncertain nodes directly would require shipping whole
distributions between sites.  The paper instead collapses each uncertain node
``j`` to its 1-median ``y_j`` (or 1-mean for the means objective) and keeps
the collapse cost ``l_j = E_sigma[d(sigma(j), y_j)]`` on a *tentacle* edge
``(p_j, y_j)``.  The resulting graph ``G`` has

* a clique over the ground point set ``P`` with edge weights ``d(u, v)``, and
* one pendant demand vertex ``p_j`` per node, attached to ``y_j`` with
  weight ``l_j``.

Lemmas 5.3/5.4 show that the (k, t)-median problem on ``G`` (demands ``{p_j}``,
facilities restricted to ``{y_j}``) is equivalent, up to constant factors, to
the original uncertain clustering problem.  This module provides the
asymmetric demand-to-facility cost matrix the algorithms use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.metrics.base import MetricSpace


@dataclass
class CompressedGraph:
    """The compressed graph for a collection of uncertain nodes.

    Parameters
    ----------
    ground_metric:
        Metric over the ground point set ``P``.
    anchor_indices:
        For each node ``j``, the index in ``P`` of its 1-median (median /
        center objectives) or 1-mean (means objective), i.e. ``y_j``.
    collapse_costs:
        For each node ``j``, the collapse cost ``l_j`` — ``E[d(sigma(j), y_j)]``
        for median/center, ``E[d^2(sigma(j), y'_j)]`` for means.
    """

    ground_metric: MetricSpace
    anchor_indices: np.ndarray
    collapse_costs: np.ndarray

    def __post_init__(self) -> None:
        self.anchor_indices = np.asarray(self.anchor_indices, dtype=int)
        self.collapse_costs = np.asarray(self.collapse_costs, dtype=float)
        if self.anchor_indices.shape != self.collapse_costs.shape:
            raise ValueError(
                "anchor_indices and collapse_costs must have the same length, got "
                f"{self.anchor_indices.shape} vs {self.collapse_costs.shape}"
            )
        if np.any(self.collapse_costs < 0):
            raise ValueError("collapse costs must be non-negative")
        self.ground_metric.validate_indices(self.anchor_indices)

    @property
    def n_nodes(self) -> int:
        """Number of uncertain nodes (demand vertices ``p_j``)."""
        return int(self.anchor_indices.size)

    # ------------------------------------------------------------------
    # Distances in G
    # ------------------------------------------------------------------

    def demand_to_point(self, node: int, point: int) -> float:
        """``d_G(p_j, u)`` for a ground point ``u in P``: ``l_j + d(y_j, u)``."""
        return float(
            self.collapse_costs[node]
            + self.ground_metric.distance(int(self.anchor_indices[node]), int(point))
        )

    def demand_facility_costs(
        self, demand_nodes: Sequence[int], facility_nodes: Sequence[int]
    ) -> np.ndarray:
        """Cost matrix of assigning demand ``p_j`` to facility ``y_{j'}``.

        This is the (asymmetric) quantity the paper's reduction actually
        clusters: rows are demand nodes ``j``, columns are *nodes* ``j'`` whose
        1-medians ``y_{j'}`` serve as candidate facilities, and the entry is
        ``d_G(p_j, y_{j'}) = l_j + d(y_j, y_{j'})``.
        """
        demand_nodes = np.asarray(demand_nodes, dtype=int)
        facility_nodes = np.asarray(facility_nodes, dtype=int)
        base = self.ground_metric.pairwise(
            self.anchor_indices[demand_nodes], self.anchor_indices[facility_nodes]
        )
        return base + self.collapse_costs[demand_nodes][:, None]

    def demand_pairwise(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Symmetric shortest-path distance between demand vertices.

        ``d_G(p_j, p_{j'}) = l_j + d(y_j, y_{j'}) + l_{j'}`` for ``j != j'``.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        base = self.ground_metric.pairwise(self.anchor_indices[rows], self.anchor_indices[cols])
        out = base + self.collapse_costs[rows][:, None] + self.collapse_costs[cols][None, :]
        # Identical demand vertices are at distance zero.
        same = rows[:, None] == cols[None, :]
        out[same] = 0.0
        return out

    def facility_point_index(self, node: int) -> int:
        """Ground-point index of the facility ``y_j`` associated with node ``j``."""
        return int(self.anchor_indices[node])


__all__ = ["CompressedGraph"]
