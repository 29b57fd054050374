"""Nearest-center assignment with weighted outlier trimming.

This is the primitive every partial-clustering routine reduces to: given a
demand-by-facility cost matrix, a set of open centers and an outlier budget
``t`` (measured in demand *weight*), assign each demand to its nearest open
center and exclude up to ``t`` weight of the most expensive demands.

Weighted demands arise at the coordinator, where each precluster center
aggregates the weight of the points attached to it.  Remark 1 of the paper
explicitly allows excluding fewer copies of an aggregated point than its
weight, so the trimming here supports *partial* drops for the sum objectives
(median/means).  For the center objective only fully dropped demands leave
the max, so partial drops are never used there.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.metrics.blocked import (
    MemoryBudgetLike,
    _source_shape,
    argmin_per_row,
    as_block_source,
)
from repro.metrics.cost_matrix import validate_objective
from repro.sequential.solution import ClusterSolution


def nearest_center_distances(
    cost_matrix: np.ndarray,
    centers: Sequence[int],
    *,
    memory_budget: MemoryBudgetLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-demand nearest open center.

    Returns ``(unit_costs, nearest)`` where ``unit_costs[i]`` is the cost of
    serving one unit of demand ``i`` from its nearest open center and
    ``nearest[i]`` is that center's column index in ``cost_matrix``.

    A blocked per-row argmin (:func:`repro.metrics.blocked.argmin_per_row`
    over the open-center columns): under a ``memory_budget`` the transient
    footprint stays ``O(budget)`` even when ``cost_matrix`` is a disk-backed
    memmap, and the result is bit-identical for every budget.
    """
    centers = np.asarray(centers, dtype=int)
    if centers.size == 0:
        raise ValueError("at least one center is required")
    unit, arg = argmin_per_row(
        as_block_source(cost_matrix), None, centers, memory_budget=memory_budget
    )
    return unit, centers[arg]


def trim_rows(
    units: np.ndarray, weights: np.ndarray, t: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The median/means greedy trim of every row of a ``(rows, n)`` block.

    Row ``r`` holds the unit service costs of the ``n`` demands under one
    candidate configuration.  The greedy visits the demands from the most to
    the least expensive (stable order, so ties go by index) and drops
    ``min(w, budget)`` weight from each demand of positive weight ``w`` until
    the budget ``t`` is used up.

    Returns ``(prefix, drops, costs)``: row ``r`` drops ``drops[r, j]``
    weight of demand ``prefix[r, j]`` and serves every other demand in full,
    at cost ``costs[r]``.  The prefix is a run of the sorted order long
    enough to exhaust ``t`` in every row (all ``n`` demands when some row
    cannot); a row drops nothing past the point where its budget runs out.

    The remaining budget is ``np.subtract.accumulate`` over ``[t, sorted
    weights...]``, which folds left to right like a ``budget -= take`` loop,
    and each cost is one ``ddot`` per row through a stacked ``np.matmul``
    (the product ``np.dot`` takes for two vectors), so every value is bitwise
    what the one-demand-at-a-time loop computes.
    """
    n_rows, n = units.shape
    budget = float(t)
    total = float(weights.sum())
    # First guess: as many demands as the budget covers at the mean weight.
    if budget <= 0:
        width = 0
    elif budget >= total:
        width = n
    else:
        width = min(n, max(1, int(np.ceil(budget * n / total))))
    # With no budget nothing is dropped, and the order is never read.
    order = np.argsort(-units, axis=1, kind="stable") if width else np.empty((n_rows, 0), int)
    while True:
        prefix = order[:, :width]
        sorted_w = weights[prefix]
        remaining = np.subtract.accumulate(
            np.concatenate([np.full((n_rows, 1), budget), sorted_w], axis=1), axis=1
        )
        if width == n or np.all(remaining[:, -1] <= 0):
            break
        width = min(n, 2 * width)
    before = remaining[:, :-1]
    drops = np.where((before > 0) & (sorted_w > 0), np.minimum(sorted_w, before), 0.0)
    served = np.repeat(weights[None, :], n_rows, axis=0)
    served[np.arange(n_rows)[:, None], prefix] = sorted_w - drops
    costs = np.matmul(served[:, None, :], units[:, :, None])[:, 0, 0]
    return prefix, drops, costs


def trim_outliers(
    unit_costs: np.ndarray,
    weights: np.ndarray,
    t: float,
    objective: str = "median",
) -> Tuple[np.ndarray, float]:
    """Greedily exclude up to ``t`` weight of the most expensive demands.

    Returns ``(dropped_weight, cost)``.  ``dropped_weight[i]`` is how much of
    demand ``i``'s weight was excluded; ``cost`` is the remaining objective
    value (weighted sum for median/means, max over not-fully-dropped demands
    for center).  The median/means case is the one-row case of
    :func:`trim_rows`.
    """
    obj = validate_objective(objective)
    unit_costs = np.asarray(unit_costs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if unit_costs.shape != weights.shape:
        raise ValueError("unit_costs and weights must have the same shape")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if not t >= 0:
        raise ValueError("outlier budget t must be non-negative")

    n = unit_costs.size
    dropped = np.zeros(n, dtype=float)

    if obj in ("median", "means"):
        prefix, drops, costs = trim_rows(unit_costs[None, :], weights, t)
        dropped[prefix[0]] = drops[0]
        return dropped, float(costs[0])

    # Center objective: only fully dropped demands leave the max.
    order = np.argsort(-unit_costs, kind="stable")
    budget = float(t)
    for idx in order:
        w = weights[idx]
        if w <= 0:
            continue
        if w <= budget:
            dropped[idx] = w
            budget -= w
        else:
            break
    remaining = weights - dropped
    active = remaining > 0
    cost = float(unit_costs[active].max()) if np.any(active) else 0.0
    return dropped, cost


def assign_with_outliers(
    cost_matrix: np.ndarray,
    centers: Sequence[int],
    t: float,
    weights: Optional[np.ndarray] = None,
    objective: str = "median",
    *,
    memory_budget: MemoryBudgetLike = None,
) -> ClusterSolution:
    """Assign demands to their nearest open center, excluding up to ``t`` weight.

    Parameters
    ----------
    cost_matrix:
        ``(n_demands, n_facilities)`` assignment costs (already squared for the
        means objective).
    centers:
        Open facility column indices.
    t:
        Outlier budget, in units of demand weight.
    weights:
        Per-demand weights (default: all ones).
    objective:
        ``"median"``, ``"means"`` or ``"center"``.
    memory_budget:
        Byte cap on the transient nearest-center blocks (see
        :func:`nearest_center_distances`); bit-identical for every budget.
    """
    obj = validate_objective(objective)
    source = as_block_source(cost_matrix)
    n = _source_shape(source)[0]
    w = np.ones(n, dtype=float) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")

    unit, nearest = nearest_center_distances(source, centers, memory_budget=memory_budget)
    dropped, cost = trim_outliers(unit, w, t, obj)

    assignment = nearest.copy()
    fully_dropped = (w - dropped) <= 1e-12
    assignment[fully_dropped & (w > 0)] = -1
    # Zero-weight demands contribute nothing; keep their nearest center for
    # interpretability but they are never counted as outliers.
    return ClusterSolution(
        centers=np.asarray(centers, dtype=int),
        assignment=assignment,
        outlier_weight=float(dropped.sum()),
        cost=cost,
        objective=obj,
        dropped_weight=dropped,
    )


__all__ = [
    "nearest_center_distances",
    "trim_rows",
    "trim_outliers",
    "assign_with_outliers",
]
