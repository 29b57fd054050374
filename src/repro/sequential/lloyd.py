"""Trimmed Lloyd iterations for Euclidean ``(k, t)``-means.

A Euclidean-specific solver used by the examples and as an additional
baseline: standard Lloyd iterations where, before every mean update, the ``t``
points farthest from their current centers are set aside as provisional
outliers (the "trimmed k-means" heuristic).  Because the paper restricts
centers to input points (Definition 1.1), the final continuous centers are
snapped to their nearest input point by default, which costs at most a factor
of 2 in the objective.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.metrics.blocked import MemoryBudgetLike, effective_tile_bytes
from repro.sequential.solution import ClusterSolution
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_points_array


def _sq_distance_block(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared distances via a shape-stable per-dimension kernel.

    Accumulating per dimension (instead of the BLAS ``a^2 + b^2 - 2ab``
    expansion) makes every entry independent of the block's row count, so
    the row-chunked assignment step below is bit-identical to the one-shot
    evaluation for any memory budget (and needs no negative-value clipping).
    """
    sq = np.zeros((points.shape[0], centers.shape[0]), dtype=float)
    for dim in range(points.shape[1]):
        diff = points[:, dim][:, None] - centers[None, :, dim]
        diff *= diff
        sq += diff
    return sq


def _closest_sq_distances(
    points: np.ndarray,
    centers: np.ndarray,
    memory_budget: MemoryBudgetLike = None,
) -> tuple:
    """Squared distance to, and index of, the nearest center for every point.

    The assignment step is the memory hot spot of trimmed Lloyd: under a
    ``memory_budget`` the ``(n, k)`` block is produced in row chunks of at
    most that many bytes (per-row results, so bit-identical across budgets).
    """
    n, k = points.shape[0], centers.shape[0]
    tile_bytes = effective_tile_bytes(memory_budget)
    # Budgeted chunks are clamped to the cache target: the (n, k) block is
    # produced per row, so any chunk size is bit-identical and a
    # cache-resident chunk is simply faster.
    chunk = n if tile_bytes is None else max(1, tile_bytes // max(1, k * 8))
    best = np.empty(n, dtype=float)
    idx = np.empty(n, dtype=int)
    for r0 in range(0, n, max(1, chunk)):
        r1 = min(r0 + max(1, chunk), n)
        sq = _sq_distance_block(points[r0:r1], centers)
        local = np.argmin(sq, axis=1)
        best[r0:r1] = sq[np.arange(sq.shape[0]), local]
        idx[r0:r1] = local
    return best, idx


def trimmed_lloyd_kmeans(
    points: np.ndarray,
    k: int,
    t: int,
    *,
    weights: Optional[np.ndarray] = None,
    max_iter: int = 60,
    n_init: int = 3,
    tol: float = 1e-7,
    snap_to_points: bool = True,
    rng: RngLike = None,
    memory_budget: MemoryBudgetLike = None,
) -> ClusterSolution:
    """Trimmed k-means on a Euclidean point cloud.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates.
    k:
        Number of centers.
    t:
        Number of points excluded (integral; trimming is per point here).
    weights:
        Optional per-point weights used in the mean updates.
    max_iter, tol:
        Lloyd iteration controls.
    n_init:
        Number of random restarts; the best trimmed objective wins.
    snap_to_points:
        If True (default) the returned centers are indices of the nearest
        input points; the continuous centers are kept in
        ``metadata["center_coords"]`` either way.
    rng:
        Seed or generator.
    memory_budget:
        Byte cap on the transient ``(n, k)`` blocks of the assignment and
        snapping steps (row-chunked; bit-identical for every budget).
    """
    pts = check_points_array(points, "points")
    n, d = pts.shape
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if t < 0 or t >= n:
        raise ValueError(f"t must be in [0, {n}), got {t}")
    w = np.ones(n, dtype=float) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    generator = ensure_rng(rng)

    best_cost = np.inf
    best_centers = None
    best_labels = None
    best_outliers = None

    for _ in range(max(1, n_init)):
        # k-means++ seeding.
        seeds = [int(generator.integers(0, n))]
        sq_min = np.sum((pts - pts[seeds[0]]) ** 2, axis=1)
        while len(seeds) < k:
            probs = w * sq_min
            total = probs.sum()
            if total <= 0:
                seeds.append(int(generator.integers(0, n)))
            else:
                seeds.append(int(generator.choice(n, p=probs / total)))
            sq_min = np.minimum(sq_min, np.sum((pts - pts[seeds[-1]]) ** 2, axis=1))
        centers = pts[seeds].copy()

        prev_cost = np.inf
        labels = np.zeros(n, dtype=int)
        outlier_mask = np.zeros(n, dtype=bool)
        for _ in range(max_iter):
            sq, labels = _closest_sq_distances(pts, centers, memory_budget)
            # Trim the t most expensive points before the mean update.
            outlier_mask = np.zeros(n, dtype=bool)
            if t > 0:
                outlier_mask[np.argsort(-sq, kind="stable")[:t]] = True
            cost = float(np.dot(w[~outlier_mask], sq[~outlier_mask]))
            for c in range(k):
                members = (~outlier_mask) & (labels == c)
                if np.any(members):
                    centers[c] = np.average(pts[members], axis=0, weights=w[members])
                else:
                    # Re-seed an empty cluster at the farthest non-outlier point.
                    candidates = np.flatnonzero(~outlier_mask)
                    centers[c] = pts[candidates[np.argmax(sq[candidates])]]
            if prev_cost - cost <= tol * max(prev_cost, 1.0):
                prev_cost = cost
                break
            prev_cost = cost

        sq, labels = _closest_sq_distances(pts, centers, memory_budget)
        outlier_mask = np.zeros(n, dtype=bool)
        if t > 0:
            outlier_mask[np.argsort(-sq, kind="stable")[:t]] = True
        cost = float(np.dot(w[~outlier_mask], sq[~outlier_mask]))
        if cost < best_cost:
            best_cost = cost
            best_centers = centers.copy()
            best_labels = labels.copy()
            best_outliers = outlier_mask.copy()

    assert best_centers is not None
    # Snap continuous centers to the nearest input point if requested.
    if snap_to_points:
        tile_bytes = effective_tile_bytes(memory_budget)
        chunk = n if tile_bytes is None else max(1, tile_bytes // max(1, k * 8))
        best_sq = np.full(k, np.inf)
        center_indices = np.zeros(k, dtype=int)
        for r0 in range(0, n, max(1, chunk)):
            sq_block = _sq_distance_block(pts[r0 : r0 + chunk], best_centers)
            local = np.argmin(sq_block, axis=0)
            local_val = sq_block[local, np.arange(k)]
            # Strict less keeps np.argmin's first-occurrence tie-breaking.
            better = local_val < best_sq
            best_sq[better] = local_val[better]
            center_indices[better] = local[better] + r0
        sq, labels = _closest_sq_distances(pts, pts[center_indices], memory_budget)
        outlier_mask = np.zeros(n, dtype=bool)
        if t > 0:
            outlier_mask[np.argsort(-sq, kind="stable")[:t]] = True
        cost = float(np.dot(w[~outlier_mask], sq[~outlier_mask]))
        assignment = center_indices[labels]
    else:
        center_indices = np.arange(k)
        labels = best_labels
        outlier_mask = best_outliers
        cost = best_cost
        assignment = labels.copy()

    assignment = np.asarray(assignment, dtype=int)
    assignment[outlier_mask] = -1
    dropped = np.where(outlier_mask, w, 0.0)

    solution = ClusterSolution(
        centers=np.asarray(center_indices, dtype=int),
        assignment=assignment,
        outlier_weight=float(dropped.sum()),
        cost=cost,
        objective="means",
        dropped_weight=dropped,
        metadata={
            "method": "trimmed_lloyd",
            "center_coords": best_centers,
            "snapped": bool(snap_to_points),
        },
    )
    return solution


__all__ = ["trimmed_lloyd_kmeans"]
