"""Weighted ``(k, t)``-center with outliers (Charikar et al. 2001 style).

The coordinator of Algorithm 2 must solve a *weighted* k-center problem with
exactly ``t`` outliers on the union of preclustering centers.  The classic
greedy of Charikar, Khuller, Mount and Narasimhan does this with a constant
approximation factor: guess the optimal radius ``r``, then repeatedly open the
facility whose radius-``r`` disk covers the most uncovered demand weight and
discard everything within ``3 r`` of it.  If after ``k`` disks at most ``t``
weight remains uncovered, the guess was feasible.

The radius guess is performed over the (subsampled) set of distinct
demand-facility distances, which contains the optimal radius, so the returned
solution is a true 3-approximation when the full candidate set is used.

Streaming discipline
--------------------
The radius search is the memory *and* pass-count hot spot: the classic
phrasing re-streams the whole cost matrix ``k`` times per radius guess (one
``count_within`` per greedy step) times ``O(log #radii)`` guesses.  This
module fuses and amortises those passes:

* :func:`probe_gains` evaluates the initial per-facility gain vectors of a
  whole *batch* of radius guesses in **one** streaming pass (a
  :class:`~repro.metrics.plan.ReductionPlan` with a multi-threshold
  ``count_within`` op — each tile is read exactly once for the batch);
* the greedy never re-streams the matrix: when a center is chosen, only the
  rows it newly covers are re-read to *incrementally* downdate the gains
  (``O(|newly covered| x m)`` cells instead of ``O(n x m)`` per step);
* the binary search probes ``probe_batch`` radii per round, so the number
  of full passes drops from ``O(k log #radii)`` to
  ``O(log_{probe_batch+1} #radii)``.

The gains are budget-invariant (they inherit ``count_within``'s
column-contiguous summation), so for a *fixed* ``probe_batch`` results are
bit-identical across memory budgets.  Two caveats:
the incremental downdating is a different (exact in real arithmetic, not
bitwise) summation order than recomputing gains from scratch, so selections
may differ from the pre-fused implementation in floating-point near-ties;
and when the greedy's feasibility happens to be *non-monotone* over the
candidate radii (the analysis assumes it is monotone), different
``probe_batch`` widths probe different candidate subsets and can land on
different — equally feasible, possibly larger — radii, exactly as two
binary searches with different probe orders would.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.metrics.blocked import (
    MemoryBudgetLike,
    _get_block,
    _source_shape,
    as_block_source,
    count_within,
    iter_blocks,
)
from repro.metrics.plan import ReductionPlan
from repro.sequential.assignment import assign_with_outliers
from repro.sequential.solution import ClusterSolution


def candidate_radii(
    cost_matrix: Any,
    max_candidates: int = 256,
    *,
    memory_budget: MemoryBudgetLike = None,
) -> np.ndarray:
    """Sorted candidate radii for the Charikar guess.

    The optimal ``(k, t)``-center radius is always one of the demand-facility
    distances.  When there are more than ``max_candidates`` distinct values we
    keep evenly spaced quantiles (always including the extremes), which costs
    at most one quantile step of accuracy in the guess.

    Under a ``memory_budget`` the distinct values are collected tile by tile
    (unique-of-uniques equals unique-of-all exactly) and merged in *batches*:
    per-tile unique sets are buffered and folded into the running set only
    once they outgrow ``max(one tile, running set)``, so the merge cost is
    amortised instead of the old ``O(u)``-per-tile ``np.union1d`` while peak
    transient memory stays one tile plus ``O(result)`` — the documented
    bound.  Note the *result set* is still ``O(#distinct values)`` — exact
    radius collection cannot be sublinear for distinct-valued matrices —
    which is fine at the coordinator (the only caller on ``(sk + t)``-sized
    instances) but makes this the wrong primitive for huge distinct-valued
    site matrices.
    """
    source = as_block_source(cost_matrix)
    if memory_budget is None and isinstance(source, np.ndarray):
        values = np.unique(np.asarray(source, dtype=float).ravel())
    else:
        merged = np.empty(0)
        pending: List[np.ndarray] = []
        pending_size = 0
        flush_floor = 0
        for _, _, block in iter_blocks(source, memory_budget=memory_budget):
            flush_floor = max(flush_floor, block.size)
            pending.append(np.unique(block))
            pending_size += pending[-1].size
            if pending_size >= max(flush_floor, merged.size):
                merged = np.unique(np.concatenate([merged, *pending]))
                pending, pending_size = [], 0
        if pending:
            merged = np.unique(np.concatenate([merged, *pending]))
        values = merged
    if values.size <= max_candidates:
        return values
    positions = np.linspace(0, values.size - 1, max_candidates).round().astype(int)
    return values[np.unique(positions)]


def probe_gains(
    source: Any,
    radii: Sequence[float],
    weights: np.ndarray,
    *,
    memory_budget: MemoryBudgetLike = None,
) -> np.ndarray:
    """Initial greedy gains for a batch of radius guesses in one fused pass.

    Returns a ``(len(radii), n_facilities)`` array whose row ``i`` is
    bitwise identical to ``count_within(source, radii[i], weights=weights)``
    — but every tile of the cost matrix is loaded exactly *once* for the
    whole batch instead of once per radius.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    plan = ReductionPlan(source, memory_budget=memory_budget)
    handle = plan.add_count_within(radii, weights=weights)
    plan.execute()
    return np.atleast_2d(handle.value)


def _greedy_cover(
    source: Any,
    weights: np.ndarray,
    k: int,
    radius: float,
    expansion: float,
    memory_budget: MemoryBudgetLike = None,
    gain0: Optional[np.ndarray] = None,
) -> tuple:
    """One run of the greedy disk cover at a fixed radius guess.

    Returns ``(centers, uncovered_weight)`` where ``centers`` are the chosen
    facility columns and ``uncovered_weight`` is the demand weight not within
    ``expansion * radius`` of any chosen center.

    The per-facility gains start from ``gain0`` (the fused
    :func:`probe_gains` row; computed on demand when omitted) and are then
    *downdated incrementally*: choosing a center zeroes the weight of the
    demands within ``expansion * radius`` of it, and only those newly
    zeroed rows are re-streamed (a rows-subset ``count_within``) to
    subtract their contribution from every facility's gain.  Each row is
    zeroed at most once, so the whole greedy re-reads at most one
    additional matrix's worth of cells — the classic phrasing re-streams
    all ``n x m`` cells on every one of the ``k`` steps.  The downdates
    inherit ``count_within``'s column-contiguous summation, so the result
    is bit-identical for every ``memory_budget``.
    """
    n, _ = _source_shape(source)
    remaining = weights.astype(float).copy()
    if gain0 is None:
        gain0 = count_within(
            source, radius, weights=remaining, memory_budget=memory_budget
        )
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


def _probe_batch(
    source: Any,
    weights: np.ndarray,
    k: int,
    radii: np.ndarray,
    expansion: float,
    memory_budget: MemoryBudgetLike = None,
) -> List[tuple]:
    """Run the greedy cover for every radius of one probe batch.

    One fused pass (:func:`probe_gains`) seeds all the greedies; each greedy
    then only touches chosen-center columns and newly covered rows.
    """
    gains = probe_gains(source, radii, weights, memory_budget=memory_budget)
    return [
        _greedy_cover(
            source, weights, k, float(radius), expansion,
            memory_budget=memory_budget, gain0=gains[pos],
        )
        for pos, radius in enumerate(np.atleast_1d(radii))
    ]


def kcenter_with_outliers(
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
    """Weighted ``(k, t)``-center with outliers via the Charikar greedy.

    Parameters
    ----------
    cost_matrix:
        ``(n_demands, n_facilities)`` distances (not squared).  May be a
        dense array, a disk-backed memmap, or any ``shape`` +
        ``get_block(rows, cols)`` block source.
    k:
        Maximum number of centers.
    t:
        Outlier budget measured in demand weight.
    weights:
        Per-demand weights (default all ones).
    expansion:
        Disk expansion factor used when removing covered demands; ``3.0`` is
        the value from the original analysis.
    max_candidates:
        Cap on the number of radius guesses tried.
    memory_budget:
        Byte cap on transient blocks (the cost matrix itself may be a
        read-only memmap); results are bit-identical for every budget.
    probe_batch:
        Number of radius guesses evaluated per fused streaming pass during
        the feasibility search (≥ 1).  A larger batch trades a wider fused
        ``count_within`` for fewer passes; the search result is the same
        smallest feasible candidate radius either way (assuming the greedy's
        feasibility is monotone in the radius, as the analysis does).

    Returns
    -------
    ClusterSolution
        Centers are facility column indices; the assignment excludes up to
        ``t`` weight of demands (the farthest ones from the chosen centers).
    """
    source = as_block_source(cost_matrix)
    n, n_fac = _source_shape(source)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if probe_batch < 1:
        raise ValueError(f"probe_batch must be >= 1, got {probe_batch}")
    w = np.ones(n, dtype=float) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")

    radii = candidate_radii(source, max_candidates=max_candidates, memory_budget=memory_budget)
    total_weight = float(w.sum())

    def _feasible(uncovered: float) -> bool:
        return uncovered <= t + 1e-9 or total_weight - uncovered <= 1e-12

    best_centers: Optional[np.ndarray] = None
    feasible_at: Optional[int] = None
    probe_rounds = 0
    # Batched binary search over the sorted radius guesses for the smallest
    # feasible one: every round probes ``probe_batch`` radii whose initial
    # gains come from a single fused pass, then narrows [lo, hi] using the
    # monotone feasibility pattern (infeasible below, feasible above).
    lo, hi = 0, radii.size - 1
    while lo <= hi:
        if hi - lo + 1 <= probe_batch:
            mids = list(range(lo, hi + 1))
        else:
            interior = np.linspace(lo, hi, probe_batch + 2)[1:-1]
            mids = sorted(set(int(np.clip(round(x), lo, hi)) for x in interior))
        # One fused pass seeds every probe of the round; the greedies then
        # run lazily in ascending order — everything past the first feasible
        # probe would be discarded anyway, so it is never evaluated.
        gains = probe_gains(source, radii[mids], w, memory_budget=memory_budget)
        probe_rounds += 1
        first_feasible = None
        for pos, mid in enumerate(mids):
            centers, uncovered = _greedy_cover(
                source, w, k, float(radii[mid]), expansion,
                memory_budget=memory_budget, gain0=gains[pos],
            )
            if _feasible(uncovered):
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
        # No radius guess was feasible (can only happen with an aggressive
        # candidate subsample); fall back to the largest radius greedy.
        best_centers, _ = _greedy_cover(
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


__all__ = ["kcenter_with_outliers", "candidate_radii", "probe_gains"]
