"""Workload generators and a partitioner that only the tests use.

The generators stress the protocols on shapes where the mean is a poor
summary (rings), where many near-ties exist (grids), and where cluster sizes
are heavily skewed (power-law), all with planted outliers.  They reuse the
:class:`repro.data.gaussian.GaussianWorkload` container since the ground
truth has the same shape (labels with ``-1`` for outliers).
:func:`partition_by_cluster` splits such a workload so that every site sees
only a few of the true clusters, the hardest case for local preclustering.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.data.gaussian import GaussianWorkload
from repro.utils.rng import RngLike, ensure_rng


def _scatter_outliers(
    generator: np.random.Generator, points: np.ndarray, n_outliers: int, spread: float
) -> np.ndarray:
    """Uniform outliers in a box ``spread`` times the data bounding box."""
    if n_outliers == 0:
        return np.empty((0, points.shape[1]))
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = np.maximum(hi - lo, 1e-9)
    return generator.uniform(
        lo - spread * extent, hi + spread * extent, size=(n_outliers, points.shape[1])
    )


def _package(
    generator: np.random.Generator,
    inliers: np.ndarray,
    labels: np.ndarray,
    n_outliers: int,
    spread: float,
    centers: np.ndarray,
) -> GaussianWorkload:
    outliers = _scatter_outliers(generator, inliers, n_outliers, spread)
    points = np.vstack([inliers, outliers]) if n_outliers else inliers
    all_labels = np.concatenate([labels, np.full(n_outliers, -1, dtype=int)])
    perm = generator.permutation(points.shape[0])
    return GaussianWorkload(points=points[perm], labels=all_labels[perm], centers=centers)


def rings_with_outliers(
    n_per_ring: int,
    n_rings: int,
    n_outliers: int,
    *,
    ring_separation: float = 12.0,
    radius: float = 3.0,
    noise: float = 0.15,
    outlier_spread: float = 2.0,
    rng: RngLike = None,
) -> GaussianWorkload:
    """Concentric-free rings laid out on a line, plus scattered outliers."""
    if n_per_ring < 1 or n_rings < 1:
        raise ValueError("n_per_ring and n_rings must be >= 1")
    generator = ensure_rng(rng)
    blocks = []
    labels = []
    centers = []
    for r in range(n_rings):
        center = np.array([r * ring_separation, 0.0])
        centers.append(center)
        angles = generator.uniform(0.0, 2.0 * np.pi, size=n_per_ring)
        radii = radius + generator.normal(0.0, noise, size=n_per_ring)
        ring = center + np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        blocks.append(ring)
        labels.append(np.full(n_per_ring, r, dtype=int))
    inliers = np.vstack(blocks)
    return _package(
        generator, inliers, np.concatenate(labels), n_outliers, outlier_spread, np.asarray(centers)
    )


def grid_with_outliers(
    side: int,
    n_outliers: int,
    *,
    jitter: float = 0.05,
    outlier_spread: float = 1.5,
    rng: RngLike = None,
) -> GaussianWorkload:
    """A jittered ``side x side`` grid (single cluster label) plus outliers.

    Grids produce many near-tied distances, which exercises the stable
    tie-breaking in the outlier-budget allocation (Algorithm 1, footnote 3).
    """
    if side < 2:
        raise ValueError(f"side must be >= 2, got {side}")
    generator = ensure_rng(rng)
    xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    inliers = np.stack([xs.ravel(), ys.ravel()], axis=1)
    inliers = inliers + generator.normal(0.0, jitter, size=inliers.shape)
    labels = np.zeros(inliers.shape[0], dtype=int)
    centers = np.asarray([[side / 2.0, side / 2.0]])
    return _package(generator, inliers, labels, n_outliers, outlier_spread, centers)


def powerlaw_clusters_with_outliers(
    n_inliers: int,
    n_clusters: int,
    n_outliers: int,
    *,
    exponent: float = 1.5,
    separation: float = 15.0,
    cluster_std: float = 1.0,
    dim: int = 2,
    outlier_spread: float = 1.5,
    rng: RngLike = None,
) -> GaussianWorkload:
    """Gaussian clusters whose sizes follow a power law (skewed cluster masses)."""
    if n_clusters < 1 or n_inliers < n_clusters:
        raise ValueError("need n_inliers >= n_clusters >= 1")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    generator = ensure_rng(rng)
    raw = np.arange(1, n_clusters + 1, dtype=float) ** (-exponent)
    weights = raw / raw.sum()
    centers = generator.uniform(0.0, separation * n_clusters, size=(n_clusters, dim))
    assignments = generator.choice(n_clusters, size=n_inliers, p=weights)
    for c in range(n_clusters):
        if not np.any(assignments == c):
            assignments[generator.integers(0, n_inliers)] = c
    inliers = centers[assignments] + generator.normal(0.0, cluster_std, size=(n_inliers, dim))
    return _package(generator, inliers, assignments, n_outliers, outlier_spread, centers)


def partition_by_cluster(
    labels: Sequence[int], s: int, rng: RngLike = None
) -> List[np.ndarray]:
    """Partition aligned with cluster structure.

    Each cluster's points are sent (mostly) to a single site chosen at
    random, so every site sees only a subset of the true clusters.  Points
    with label ``-1`` (planted outliers) are spread uniformly.
    """
    labels = np.asarray(labels, dtype=int)
    if not 1 <= s <= labels.size:
        raise ValueError(f"cannot split {labels.size} points across {s} non-empty sites")
    generator = ensure_rng(rng)
    unique = np.unique(labels[labels >= 0])
    shards: List[List[int]] = [[] for _ in range(s)]
    # Assign whole clusters to sites round-robin over a random cluster order.
    cluster_order = generator.permutation(unique)
    for pos, label in enumerate(cluster_order):
        target = pos % s
        shards[target].extend(np.flatnonzero(labels == label).tolist())
    noise = generator.permutation(np.flatnonzero(labels < 0))
    for pos, idx in enumerate(noise):
        shards[pos % s].append(int(idx))
    # Guarantee non-empty shards by stealing single points from the largest shard.
    for i in range(s):
        if not shards[i]:
            donor = int(np.argmax([len(x) for x in shards]))
            shards[i].append(shards[donor].pop())
    return [np.sort(np.asarray(shard, dtype=int)) for shard in shards]
