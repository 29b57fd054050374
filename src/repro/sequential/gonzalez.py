"""Gonzalez's farthest-first traversal (Gonzalez 1985).

For the k-center problem the traversal produces a re-ordering
``p_1, ..., p_n`` of the input such that, for every ``r``, the prefix
``{p_1, ..., p_r}`` is a 2-approximate set of ``r`` centers.  Algorithm 2 of
the paper exploits a second property: the distance of the ``(k+q)``-th point
to the prefix before it, ``l(i, q) = min_{j < k+q} d(a_j, a_{k+q})``, is a
monotone non-increasing witness of the local ``(k, q)``-center cost, which
can be compared *globally* across sites to split the outlier budget.

The traversal runs lazily against a metric: each step needs one vectorised
"distances to the newly chosen point" call, so choosing ``m`` prefix points
costs ``O(m * n)`` distance evaluations — the paper's ``Õ((k + t) n_i)`` site
time when ``m = k + t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.blocked import MemoryBudgetLike, effective_tile_bytes
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class GonzalezResult:
    """Output of the farthest-first traversal.

    Attributes
    ----------
    ordering:
        Indices of the traversed points, in traversal order (length ``m``).
    radii:
        ``radii[r]`` is the distance from ``ordering[r]`` to the set
        ``{ordering[0], ..., ordering[r-1]}``; ``radii[0]`` is defined as
        ``+inf`` (the first point has no predecessor).  ``radii`` is
        non-increasing from index 1 on.
    coverage_radius:
        For each prefix length ``r`` (1-based), ``coverage_radius[r-1]`` is the
        maximum distance from any input point to the prefix — i.e. the
        k-center cost of using that prefix, which is at most twice optimal.
    """

    ordering: np.ndarray
    radii: np.ndarray
    coverage_radius: np.ndarray

    def prefix(self, r: int) -> np.ndarray:
        """The first ``r`` traversed points."""
        if r < 0 or r > self.ordering.size:
            raise ValueError(f"prefix length must be in [0, {self.ordering.size}], got {r}")
        return self.ordering[:r]


def _distances_from_chunked(
    metric: MetricSpace, i: int, cols: np.ndarray, tile_bytes: Optional[int]
) -> np.ndarray:
    """One traversal sweep, evaluated in column chunks of at most ``tile_bytes``.

    ``distances_from`` is computed independently per target point, so
    chunking is bit-identical to the one-shot call; only the transient
    gather inside the metric shrinks.  ``tile_bytes`` comes from
    :func:`~repro.metrics.blocked.effective_tile_bytes`, so a generous
    budget still sweeps in cache-resident pieces.
    """
    if tile_bytes is None:
        return metric.distances_from(i, cols)
    chunk = max(1, tile_bytes // 8)
    out = np.empty(cols.size, dtype=float)
    for c0 in range(0, cols.size, chunk):
        c1 = min(c0 + chunk, cols.size)
        out[c0:c1] = metric.distances_from(i, cols[c0:c1])
    return out


def gonzalez(
    metric: MetricSpace,
    indices: Optional[Sequence[int]] = None,
    m: Optional[int] = None,
    *,
    start: Optional[int] = None,
    rng: RngLike = None,
    memory_budget: MemoryBudgetLike = None,
) -> GonzalezResult:
    """Farthest-first traversal of ``indices`` (default: all points of ``metric``).

    Parameters
    ----------
    metric:
        The metric space.
    indices:
        The subset of points to traverse (global indices).  Defaults to all.
    m:
        Number of points to traverse; defaults to all of ``indices``.
    start:
        Index (into ``indices``) of the first point; random if omitted.
    rng:
        Seed or generator used only to choose the starting point.
    memory_budget:
        Byte cap on each sweep's transient blocks.  The traversal already
        streams — its state is three ``O(n)`` vectors, never a matrix — so
        the budget only chunks the per-step distance sweeps; results are
        bit-identical for every budget.
    """
    idx = np.arange(len(metric)) if indices is None else np.asarray(indices, dtype=int)
    metric.validate_indices(idx)
    n = idx.size
    if n == 0:
        raise ValueError("cannot run Gonzalez traversal on an empty point set")
    m = n if m is None else int(m)
    if m < 1 or m > n:
        raise ValueError(f"m must be in [1, {n}], got {m}")

    if start is None:
        start = int(ensure_rng(rng).integers(0, n))
    elif start < 0 or start >= n:
        raise ValueError(f"start must be in [0, {n}), got {start}")

    ordering = np.empty(m, dtype=int)
    radii = np.empty(m, dtype=float)
    coverage = np.empty(m, dtype=float)

    tile_bytes = effective_tile_bytes(memory_budget)
    ordering[0] = idx[start]
    radii[0] = np.inf
    # ``dist_to_chosen`` holds the true distance of every point to the prefix;
    # ``selection`` is the same array with already-chosen points masked out so
    # that ties at distance zero (duplicate points) never re-select a point.
    # Both are updated in place, so both are private copies of the first
    # sweep: a metric may serve it as a read-only view of its own storage
    # (``MatrixMetric`` does for a contiguous index run).
    first_sweep = _distances_from_chunked(metric, int(idx[start]), idx, tile_bytes)
    dist_to_chosen = first_sweep.copy()
    selection = first_sweep.copy()
    selection[start] = -np.inf
    coverage[0] = float(dist_to_chosen.max()) if n > 1 else 0.0

    for r in range(1, m):
        nxt = int(np.argmax(selection))
        ordering[r] = idx[nxt]
        radii[r] = float(dist_to_chosen[nxt])
        new_dist = _distances_from_chunked(metric, int(idx[nxt]), idx, tile_bytes)
        np.minimum(dist_to_chosen, new_dist, out=dist_to_chosen)
        np.minimum(selection, new_dist, out=selection)
        selection[nxt] = -np.inf
        coverage[r] = float(dist_to_chosen.max())

    return GonzalezResult(ordering=ordering, radii=radii, coverage_radius=coverage)


def center_witnesses(result: GonzalezResult, k: int, t: int) -> np.ndarray:
    """The Algorithm 2 witnesses ``l(i, q) = radii[k + q - 1]`` for ``q = 1..t``.

    ``l(i, q)`` is the distance of the ``(k+q)``-th traversed point to the
    points before it (0-indexed: ``radii[k + q - 1]``).  When the site holds
    fewer than ``k + q`` points the witness is 0 (its local instance can be
    covered exactly with that many centers).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    out = np.zeros(t, dtype=float)
    m = result.radii.size
    for q in range(1, t + 1):
        pos = k + q - 1
        if pos < m:
            out[q - 1] = result.radii[pos]
    return out


__all__ = ["GonzalezResult", "gonzalez", "center_witnesses"]
