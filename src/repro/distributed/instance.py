"""A clustering input partitioned across sites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace, SubsetMetric
from repro.utils.validation import check_k_t


@dataclass
class DistributedInstance:
    """A partial-clustering input split across ``s`` sites.

    Attributes
    ----------
    metric:
        The global metric space containing every input point.  Sites only
        ever evaluate distances among their own points and points explicitly
        communicated to them; protocols are written to respect this.
    shards:
        One array of global point indices per site; the arrays are disjoint.
    k, t:
        Number of centers and outlier budget of the global problem.
    objective:
        ``"median"``, ``"means"`` or ``"center"``.
    """

    metric: MetricSpace
    shards: List[np.ndarray]
    k: int
    t: int
    objective: str = "median"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.shards = [np.asarray(s, dtype=int) for s in self.shards]
        if not self.shards:
            raise ValueError("instance needs at least one site")
        for shard in self.shards:
            self.metric.validate_indices(shard)
            if shard.size == 0:
                raise ValueError("every site must hold at least one point")
        all_points = np.concatenate(self.shards)
        if np.unique(all_points).size != all_points.size:
            raise ValueError("shards must be disjoint")
        check_k_t(int(all_points.size), self.k, self.t)

    # ------------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of sites ``s``."""
        return len(self.shards)

    @property
    def n_points(self) -> int:
        """Total number of input points ``n``."""
        return int(sum(s.size for s in self.shards))

    @property
    def site_sizes(self) -> np.ndarray:
        """Shard sizes ``n_i``."""
        return np.asarray([s.size for s in self.shards], dtype=int)

    def all_indices(self) -> np.ndarray:
        """All point indices, concatenated in site order."""
        return np.concatenate(self.shards)

    def shard(self, site: int) -> np.ndarray:
        """Global indices held by ``site``."""
        return self.shards[site]

    def site_view(self, site: int) -> SubsetMetric:
        """What ``site`` holds: the metric restricted to its own points."""
        return SubsetMetric(self.metric, self.shards[site])

    def site_of_point(self) -> np.ndarray:
        """Array mapping each global point index in the instance to its site.

        Only valid when the shards exactly cover ``0..n-1`` (the common case);
        otherwise a dictionary-style lookup is built from the shard arrays.
        """
        n = int(max(s.max() for s in self.shards)) + 1
        owner = np.full(n, -1, dtype=int)
        for i, shard in enumerate(self.shards):
            owner[shard] = i
        return owner

    def words_per_point(self) -> int:
        """The paper's ``B`` for this instance's metric."""
        return int(self.metric.words_per_point)

    @classmethod
    def from_partition(
        cls,
        metric: MetricSpace,
        partition: Sequence[Sequence[int]],
        k: int,
        t: int,
        objective: str = "median",
        metadata: Optional[dict] = None,
    ) -> "DistributedInstance":
        """Build an instance from an explicit partition of point indices."""
        return cls(
            metric=metric,
            shards=[np.asarray(p, dtype=int) for p in partition],
            k=k,
            t=t,
            objective=objective,
            metadata=dict(metadata or {}),
        )


@dataclass
class UncertainDistributedInstance:
    """An uncertain clustering input whose *nodes* are split across sites.

    Attributes
    ----------
    uncertain:
        The underlying :class:`repro.uncertain.UncertainInstance` (ground
        metric + node distributions).
    shards:
        One array of node indices per site; disjoint.
    k, t:
        Number of centers and outlier budget (in nodes).
    objective:
        ``"median"``, ``"means"``, ``"center"`` (center-pp) or ``"center-g"``.
    """

    uncertain: "object"
    shards: List[np.ndarray]
    k: int
    t: int
    objective: str = "median"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.shards = [np.asarray(s, dtype=int) for s in self.shards]
        if not self.shards:
            raise ValueError("instance needs at least one site")
        n_nodes = self.uncertain.n_nodes
        for shard in self.shards:
            if shard.size == 0:
                raise ValueError("every site must hold at least one node")
            if shard.min() < 0 or shard.max() >= n_nodes:
                raise ValueError("shard refers to nodes outside the uncertain instance")
        all_nodes = np.concatenate(self.shards)
        if np.unique(all_nodes).size != all_nodes.size:
            raise ValueError("shards must be disjoint")
        check_k_t(int(all_nodes.size), self.k, self.t)

    @property
    def n_sites(self) -> int:
        """Number of sites ``s``."""
        return len(self.shards)

    @property
    def n_nodes(self) -> int:
        """Total number of uncertain nodes in the instance."""
        return int(sum(s.size for s in self.shards))

    @property
    def site_sizes(self) -> np.ndarray:
        """Shard sizes ``n_i`` (in nodes)."""
        return np.asarray([s.size for s in self.shards], dtype=int)

    @property
    def ground_metric(self):
        """Metric over the ground point set ``P``."""
        return self.uncertain.ground_metric

    def shard(self, site: int) -> np.ndarray:
        """Node indices held by ``site``."""
        return self.shards[site]

    def site_view(self, site: int):
        """What ``site`` holds: its own nodes, over the shared ground metric."""
        return self.uncertain.node_subset(self.shards[site])

    def words_per_point(self) -> int:
        """The paper's ``B`` (words to transmit one ground point)."""
        return int(self.uncertain.ground_metric.words_per_point)

    def node_words(self) -> float:
        """The paper's ``I`` (words to transmit one node's distribution)."""
        return self.uncertain.max_node_words()

    @classmethod
    def from_partition(
        cls,
        uncertain,
        partition: Sequence[Sequence[int]],
        k: int,
        t: int,
        objective: str = "median",
        metadata: Optional[dict] = None,
    ) -> "UncertainDistributedInstance":
        """Build an instance from an explicit partition of node indices."""
        return cls(
            uncertain=uncertain,
            shards=[np.asarray(p, dtype=int) for p in partition],
            k=k,
            t=t,
            objective=objective,
            metadata=dict(metadata or {}),
        )


__all__ = ["DistributedInstance", "UncertainDistributedInstance"]
