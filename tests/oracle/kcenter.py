"""Reference radius search: the plan-based Charikar greedy that
:func:`repro.sequential.kcenter_with_outliers` replaced.

Every round computes the initial gains of all its probes in one fused
:class:`~repro.metrics.plan.ReductionPlan` pass (a multi-threshold
``count_within`` in column-strip orientation), and every greedy downdates
its gains with a rows-subset :func:`~repro.metrics.blocked.count_within`.
The feasibility predicate is ``uncovered <= t + 1e-9`` alone: a greedy that
covered no weight is not feasible.  The library reads a facility-major copy
instead and evaluates probes lazily; both must return the same bits.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.metrics.blocked import (
    MemoryBudgetLike,
    _get_block,
    _source_shape,
    as_block_source,
    count_within,
)
from repro.metrics.plan import ReductionPlan
from repro.sequential.assignment import assign_with_outliers
from repro.sequential.kcenter_outliers import candidate_radii
from repro.sequential.solution import ClusterSolution


def probe_gains_reference(
    source: Any,
    radii: Sequence[float],
    weights: np.ndarray,
    *,
    memory_budget: MemoryBudgetLike = None,
) -> np.ndarray:
    """``(len(radii), n_facilities)`` initial gains from one fused plan pass."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    plan = ReductionPlan(source, memory_budget=memory_budget)
    handle = plan.add_count_within(radii, weights=weights)
    plan.execute()
    return np.atleast_2d(handle.value)


def greedy_cover_reference(
    source: Any,
    weights: np.ndarray,
    k: int,
    radius: float,
    expansion: float,
    memory_budget: MemoryBudgetLike = None,
    gain0: Optional[np.ndarray] = None,
) -> tuple:
    """``(centers, uncovered weight)`` of one greedy from the gains ``gain0``."""
    n, _ = _source_shape(source)
    remaining = weights.astype(float).copy()
    if gain0 is None:
        gain0 = count_within(source, radius, weights=remaining, memory_budget=memory_budget)
    gain = np.array(gain0, dtype=float, copy=True)
    centers = []
    outer_radius = expansion * radius
    all_rows = np.arange(n)
    for _ in range(k):
        if not np.any(remaining > 0):
            break
        best = int(np.argmax(gain))
        centers.append(best)
        column = _get_block(source, all_rows, np.asarray([best]))[:, 0]
        newly = np.flatnonzero((remaining > 0) & (column <= outer_radius))
        if newly.size:
            gain = gain - count_within(
                source, radius, rows=newly, weights=remaining[newly],
                memory_budget=memory_budget,
            )
            remaining[newly] = 0.0
    return np.asarray(centers, dtype=int), float(remaining.sum())


def kcenter_with_outliers_reference(
    cost_matrix: Any,
    k: int,
    t: float,
    weights: Optional[np.ndarray] = None,
    *,
    expansion: float = 3.0,
    max_candidates: int = 256,
    memory_budget: MemoryBudgetLike = None,
    probe_batch: int = 3,
) -> ClusterSolution:
    """The plan-based search, with :func:`kcenter_with_outliers`'s interface."""
    source = as_block_source(cost_matrix)
    n, _ = _source_shape(source)
    w = np.ones(n, dtype=float) if weights is None else np.asarray(weights, dtype=float)
    radii = candidate_radii(source, max_candidates=max_candidates, memory_budget=memory_budget)

    best_centers: Optional[np.ndarray] = None
    feasible_at: Optional[int] = None
    probe_rounds = 0
    lo, hi = 0, radii.size - 1
    while lo <= hi:
        if hi - lo + 1 <= probe_batch:
            mids = list(range(lo, hi + 1))
        else:
            interior = np.linspace(lo, hi, probe_batch + 2)[1:-1]
            mids = sorted(set(int(np.clip(round(x), lo, hi)) for x in interior))
        gains = probe_gains_reference(source, radii[mids], w, memory_budget=memory_budget)
        probe_rounds += 1
        first_feasible = None
        for pos, mid in enumerate(mids):
            centers, uncovered = greedy_cover_reference(
                source, w, k, float(radii[mid]), expansion,
                memory_budget=memory_budget, gain0=gains[pos],
            )
            if uncovered <= t + 1e-9:
                first_feasible = pos
                break
        if first_feasible is None:
            lo = mids[-1] + 1
        else:
            feasible_at = mids[first_feasible]
            best_centers = centers
            hi = mids[first_feasible] - 1
            if first_feasible > 0:
                lo = mids[first_feasible - 1] + 1

    if best_centers is None or best_centers.size == 0:
        best_centers, _ = greedy_cover_reference(
            source, w, k, float(radii[-1]), expansion, memory_budget=memory_budget
        )
        if best_centers.size == 0:
            best_centers = np.asarray([0], dtype=int)
        feasible_at = radii.size - 1

    solution = assign_with_outliers(
        source, best_centers, t, w, objective="center", memory_budget=memory_budget
    )
    solution.metadata.update(
        {
            "method": "charikar_greedy",
            "radius_guess": float(radii[feasible_at]) if feasible_at is not None else None,
            "n_radius_candidates": int(radii.size),
            "expansion": float(expansion),
            "probe_batch": int(probe_batch),
            "probe_rounds": int(probe_rounds),
        }
    )
    return solution
