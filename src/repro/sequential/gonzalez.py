"""Gonzalez's farthest-first traversal (Gonzalez 1985).

For the k-center problem the traversal produces a re-ordering
``p_1, ..., p_n`` of the input such that, for every ``r``, the prefix
``{p_1, ..., p_r}`` is a 2-approximate set of ``r`` centers.  Algorithm 2 of
the paper exploits a second property: the distance of the ``(k+q)``-th point
to the prefix before it, ``l(i, q) = min_{j < k+q} d(a_j, a_{k+q})``, is a
monotone non-increasing witness of the local ``(k, q)``-center cost, which
can be compared *globally* across sites to split the outlier budget.

The traversal runs lazily against a metric: each step needs one vectorised
"distances to the newly chosen point" sweep of the metric's row kernel, so
choosing ``m`` prefix points costs ``O(m * n)`` distance evaluations — the
paper's ``Õ((k + t) n_i)`` site time when ``m = k + t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
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


def gonzalez(
    metric: MetricSpace,
    indices: Optional[Sequence[int]] = None,
    m: Optional[int] = None,
    *,
    start: Optional[int] = None,
    rng: RngLike = None,
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

    Each step is one sweep of ``metric.row_kernel(indices)``
    (:class:`~repro.metrics.base.RowKernel`), bit for bit the row
    ``metric.pairwise([chosen], indices)[0]``.  The traversal streams and
    takes no memory budget: its state is three ``O(n)`` vectors, each
    sweep's output is ``O(n)``, and a kernel's prepared columns are at
    most the points' own coordinates (``d x n`` for a Euclidean metric),
    input-sized like the vectors.
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

    kernel = metric.row_kernel(idx)
    ordering[0] = idx[start]
    radii[0] = np.inf
    # ``dist_to_chosen`` holds the true distance of every point to the prefix;
    # ``selection`` is the same array with already-chosen points masked out so
    # that ties at distance zero (duplicate points) never re-select a point.
    # Both are updated in place, so both are private copies of the first
    # sweep: a kernel may serve it as a read-only view of the metric's
    # storage (``MatrixMetric`` does for a contiguous index run).
    first_sweep = kernel.row(int(idx[start]))
    dist_to_chosen = first_sweep.copy()
    selection = first_sweep.copy()
    selection[start] = -np.inf
    coverage[0] = float(dist_to_chosen.max()) if n > 1 else 0.0

    for r in range(1, m):
        nxt = int(np.argmax(selection))
        ordering[r] = idx[nxt]
        radii[r] = float(dist_to_chosen[nxt])
        new_dist = kernel.row(int(idx[nxt]))
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
    known = result.radii[k:k + t]
    out[:known.size] = known
    return out


__all__ = ["GonzalezResult", "gonzalez", "center_witnesses"]
