"""Synthetic uncertain-node workloads (Section 5 experiments).

Each workload consists of a ground point set ``P`` (a Euclidean point cloud)
and a collection of uncertain nodes.  Regular nodes are distributions
concentrated around a true cluster location (e.g. a sensor with measurement
noise); outlier nodes are either centred far away or are high-entropy
distributions spread over distant regions — the kind of node the partial
objective should discard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.gaussian import gaussian_mixture_with_outliers
from repro.metrics.euclidean import EuclideanMetric
from repro.uncertain.instance import UncertainInstance
from repro.uncertain.nodes import UncertainNode
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class UncertainWorkload:
    """A generated uncertain instance with ground truth.

    Attributes
    ----------
    instance:
        The :class:`UncertainInstance` (ground metric + nodes).
    node_labels:
        Cluster id per node, ``-1`` for planted outlier nodes.
    """

    instance: UncertainInstance
    node_labels: np.ndarray

    @property
    def n_outlier_nodes(self) -> int:
        """Number of planted outlier nodes."""
        return int(np.sum(self.node_labels < 0))


def _support_near(
    generator: np.random.Generator,
    ground_points: np.ndarray,
    location: np.ndarray,
    support_size: int,
    spread: float,
) -> np.ndarray:
    """Indices of the ground points nearest to random perturbations of ``location``."""
    targets = location + generator.normal(0.0, spread, size=(support_size, ground_points.shape[1]))
    d = (
        np.einsum("ij,ij->i", targets, targets)[:, None]
        + np.einsum("ij,ij->i", ground_points, ground_points)[None, :]
        - 2.0 * targets @ ground_points.T
    )
    idx = np.argmin(d, axis=1)
    return np.unique(idx)


def uncertain_nodes_from_mixture(
    n_nodes: int,
    n_outlier_nodes: int,
    n_clusters: int,
    *,
    ground_size: int = 300,
    support_size: int = 6,
    dim: int = 2,
    separation: float = 10.0,
    cluster_std: float = 1.0,
    node_noise: float = 0.5,
    outlier_noise: float = 6.0,
    rng: RngLike = None,
) -> UncertainWorkload:
    """Uncertain nodes centred on a Gaussian mixture.

    The ground set ``P`` is itself a mixture sample (plus scattered points so
    outlier nodes have support), and each node's distribution is supported on
    the ground points nearest to noisy copies of its true location.
    """
    if n_nodes < n_clusters:
        raise ValueError(f"need at least {n_clusters} nodes, got {n_nodes}")
    generator = ensure_rng(rng)
    ground = gaussian_mixture_with_outliers(
        n_inliers=int(ground_size * 0.8),
        n_outliers=ground_size - int(ground_size * 0.8),
        n_clusters=n_clusters,
        dim=dim,
        separation=separation,
        cluster_std=cluster_std,
        rng=generator,
    )
    metric = EuclideanMetric(ground.points)
    ground_points = ground.points
    centers = ground.centers

    nodes: List[UncertainNode] = []
    labels: List[int] = []

    box = separation * n_clusters
    for j in range(n_nodes):
        cluster = int(generator.integers(0, n_clusters))
        location = centers[cluster] + generator.normal(0.0, cluster_std, size=dim)
        support = _support_near(generator, ground_points, location, support_size, node_noise)
        probs = generator.dirichlet(np.full(support.size, 2.0))
        nodes.append(UncertainNode(support=support, probabilities=probs, name=f"node-{j}"))
        labels.append(cluster)

    for j in range(n_outlier_nodes):
        location = generator.uniform(-0.5 * box, 1.5 * box, size=dim)
        support = _support_near(
            generator, ground_points, location, support_size, outlier_noise
        )
        probs = generator.dirichlet(np.full(support.size, 1.0))
        nodes.append(
            UncertainNode(support=support, probabilities=probs, name=f"outlier-node-{j}")
        )
        labels.append(-1)

    perm = generator.permutation(len(nodes))
    instance = UncertainInstance(
        ground_metric=metric,
        nodes=[nodes[i] for i in perm],
        metadata={"generator": "uncertain_nodes_from_mixture"},
    )
    return UncertainWorkload(instance=instance, node_labels=np.asarray(labels)[perm])


__all__ = [
    "UncertainWorkload",
    "uncertain_nodes_from_mixture",
]
