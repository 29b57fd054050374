"""Exact (k, z)-median, -means and -center optima by enumeration.

For a fixed center set the best ``z`` points to drop are the ``z`` with the
largest assignment costs, so OPT(k, z) is the minimum of that trimmed cost
over every ``k``-subset of the input points (the library's centers are input
points).  Enumeration is exponential in ``k``, so the oracle refuses
instances with more than 16 points.
"""

from __future__ import annotations

from itertools import combinations
from typing import Tuple

import numpy as np

from repro.metrics.base import MetricSpace

MAX_POINTS = 16


def exact_opt(
    metric: MetricSpace, k: int, z: float, objective: str
) -> Tuple[float, np.ndarray]:
    """Return ``(OPT(k, z), an optimal center set)`` for unit-weight points."""
    n = len(metric)
    if n > MAX_POINTS:
        raise ValueError(f"exact enumeration is limited to {MAX_POINTS} points, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    distances = metric.full_matrix()
    costs = distances * distances if objective == "means" else distances
    center_sets = np.asarray(list(combinations(range(n), k)), dtype=int)
    # (n_sets, n): each point's cost to its nearest center, ascending.
    assigned = np.sort(costs[:, center_sets].min(axis=2).T, axis=1)
    kept = assigned[:, : max(n - int(z), 0)]
    if kept.shape[1] == 0:
        return 0.0, center_sets[0]
    trimmed = kept[:, -1] if objective == "center" else kept.sum(axis=1)
    best = int(np.argmin(trimmed))
    return float(trimmed[best]), center_sets[best]
