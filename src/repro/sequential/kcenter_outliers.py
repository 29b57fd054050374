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

Reading the matrix by facility
------------------------------
A greedy step needs, for every facility, the uncovered demand weight within
``r`` of it: a sum down one column of the ``(demands x facilities)``
matrix.  The search reads the matrix by facility (:class:`_ByFacility`):
a *strip* is a ``(facilities x demands)`` block whose row ``j`` holds every
demand's distance to facility ``j`` contiguously, so a facility's gain is
one contiguous ``np.add.reduce((strip <= r) * w, axis=1)``.

* **The copy.**  Without a memory budget, or when the budget holds
  :data:`_STRIP_TILES` matrices, the matrix is transposed once per solve
  and the copy serves the whole search: every gains pass, every downdate
  (a gather of the newly covered demands' columns) and every chosen
  center's distances (a row view).  A pass still works through it in
  tile-sized strips, so its temporaries stay one tile whatever the matrix
  size.
* **Strips.**  Otherwise each pass re-reads budget-sized facility strips of
  the source, each a column block transposed into a contiguous workspace.
* **Probe rounds.**  Each round of the binary search probes up to
  ``probe_batch`` radii in ascending order and stops at the first feasible
  one.  From the copy a probe's initial gains are computed only when its
  greedy runs, so the probes above that one cost nothing; from the source
  one read of the strips seeds every probe of the round (strips outer,
  radii inner), since each read is a full pass.
* **Incremental greedy.**  Choosing a center zeroes the weight of the
  demands within ``expansion * r`` of it, and only those demands are read
  again, to downdate every facility's gain.  Each demand is zeroed at most
  once, so a greedy reads at most one more matrix's worth of cells.

A strip never splits one facility's demands, and each gain is numpy's
pairwise sum over its demand rows in row order, the same reduction
:func:`~repro.metrics.blocked.count_within` runs on its Fortran-order
column strips.  So the gains, and every result, are bit-identical across
memory budgets and strip widths.  Two caveats: the incremental downdating
is a different (exact in real arithmetic, not bitwise) summation order
than recomputing gains from scratch, so selections may differ from a
from-scratch greedy in floating-point near-ties; and when the greedy's
feasibility happens to be *non-monotone* over the candidate radii (the
analysis assumes it is monotone), different ``probe_batch`` widths probe
different candidate subsets and can land on different (equally feasible,
possibly larger) radii, exactly as two binary searches with different
probe orders would.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.metrics.blocked import (
    DEFAULT_CACHE_TARGET,
    MemoryBudgetLike,
    _get_block,
    _source_shape,
    as_block_source,
    effective_tile_bytes,
    iter_blocks,
    resolve_memory_budget,
)
from repro.sequential.assignment import assign_with_outliers
from repro.sequential.solution import ClusterSolution

#: What one strip cell may cost in float64 tiles: the block read from the
#: source, its contiguous transpose, the mask and the weighted product.
_STRIP_TILES = 4


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
    (unique-of-uniques equals unique-of-all, a zero radius always as
    ``+0.0``) and merged in *batches*:
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
    if values.size > max_candidates:
        positions = np.linspace(0, values.size - 1, max_candidates).round().astype(int)
        values = values[np.unique(positions)]
    # ``np.unique`` keeps whichever zero it meets first, and that depends on
    # the budget's tiles; ``-0.0 + 0.0`` is ``+0.0``, so a zero radius has
    # one sign under every budget.
    return values + 0.0


class _ByFacility:
    """The radius search's view of a cost matrix, read by facility.

    Holds the facility-major copy when :data:`_STRIP_TILES` copies of the
    matrix fit ``memory_budget`` (always without one); otherwise every pass
    re-reads strips of the source.  Either way a pass works strip by strip,
    each at most :func:`~repro.metrics.blocked.effective_tile_bytes` (the
    cache target without a budget) over :data:`_STRIP_TILES`, and
    :meth:`gains` is bitwise :func:`~repro.metrics.blocked.count_within`.
    """

    def __init__(self, source: Any, memory_budget: MemoryBudgetLike = None):
        self._source = source
        self._n, self._m = _source_shape(source)
        budget = resolve_memory_budget(memory_budget)
        self._tile_bytes = effective_tile_bytes(memory_budget) or DEFAULT_CACHE_TARGET
        self._copy: Optional[np.ndarray] = None
        if budget is None or _STRIP_TILES * 8 * self._n * self._m <= budget:
            every = _get_block(source, np.arange(self._n), np.arange(self._m))
            self._copy = np.ascontiguousarray(every.T)

    def _strips(self, rows: Optional[np.ndarray]) -> Iterator[Tuple[slice, np.ndarray]]:
        """``(facility slice, strip)`` pairs covering every facility, where
        ``strip`` is a C-contiguous ``(facilities, len(rows))`` block."""
        n_rows = self._n if rows is None else rows.size
        width = max(1, self._tile_bytes // (_STRIP_TILES * 8 * max(1, n_rows)))
        for c0 in range(0, self._m, width):
            cols = slice(c0, min(c0 + width, self._m))
            if self._copy is not None:
                strip = self._copy[cols]
                yield cols, strip if rows is None else np.take(strip, rows, axis=1)
            else:
                every = np.arange(self._n) if rows is None else rows
                block = _get_block(self._source, every, np.arange(cols.start, cols.stop))
                yield cols, np.ascontiguousarray(block.T)

    def gains(
        self, radii: Any, weights: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-facility weight of the demands within each of ``radii``.

        ``rows`` picks the demands (all by default) and ``weights`` align
        with them.  Returns ``(len(radii), n_facilities)``; strips are outer
        and radii inner, so one call reads each strip once.
        """
        out = np.empty((len(radii), self._m))
        for cols, strip in self._strips(rows):
            for pos, radius in enumerate(radii):
                out[pos, cols] = np.add.reduce((strip <= radius) * weights, axis=1)
        return out

    def round_gains(self, radii: np.ndarray, weights: np.ndarray) -> Iterator[np.ndarray]:
        """Each radius's gains over every demand, in order, for one probe
        round: from the copy each is computed only when the search asks for
        it, from the source one read of the strips computes them all."""
        if self._copy is None:
            yield from self.gains(radii, weights)
        else:
            for radius in radii:
                yield self.gains([radius], weights)[0]

    def column(self, facility: int) -> np.ndarray:
        """Every demand's distance to ``facility``."""
        if self._copy is not None:
            return self._copy[facility]
        return _get_block(self._source, np.arange(self._n), np.asarray([facility]))[:, 0]


def _greedy_cover(
    facilities: _ByFacility,
    weights: np.ndarray,
    k: int,
    radius: float,
    expansion: float,
    gain: Optional[np.ndarray] = None,
) -> tuple:
    """One run of the greedy disk cover at a fixed radius guess.

    Returns ``(centers, uncovered_weight)`` where ``centers`` are the chosen
    facility columns and ``uncovered_weight`` is the demand weight not within
    ``expansion * radius`` of any chosen center.

    The per-facility gains start from ``gain`` (computed when omitted) and
    are then *downdated incrementally*: choosing a center zeroes the weight
    of the demands within ``expansion * radius`` of it, and only those newly
    zeroed demands are read again to subtract their contribution from every
    facility's gain.
    """
    remaining = np.array(weights, dtype=float)
    if gain is None:
        gain = facilities.gains([radius], remaining)[0]
    centers = []
    outer_radius = expansion * radius
    for _ in range(k):
        if not np.any(remaining > 0):
            break
        best = int(np.argmax(gain))
        centers.append(best)
        newly = np.flatnonzero((remaining > 0) & (facilities.column(best) <= outer_radius))
        if newly.size:
            gain = gain - facilities.gains([radius], remaining[newly], rows=newly)[0]
            remaining[newly] = 0.0
    return np.asarray(centers, dtype=int), float(remaining.sum())


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
        read-only memmap), the search's facility-major copy included: a
        budget too small for the copy streams facility strips instead.
        Without a budget the copy, as large as the matrix, is kept for the
        whole search (building it from a block source that is not an array
        briefly holds the block read too).  Results are bit-identical for
        every budget.
    probe_batch:
        Number of radius guesses per round of the feasibility search
        (≥ 1).  A round runs its greedies in ascending radius order and
        stops at the first feasible one, so a larger batch trades more
        greedies per round for fewer rounds; the search result is the same
        smallest feasible candidate radius either way (assuming the greedy's
        feasibility is monotone in the radius, as the analysis does).

    Returns
    -------
    ClusterSolution
        Centers are facility column indices; the assignment excludes up to
        ``t`` weight of demands (the farthest ones from the chosen centers).
    """
    source = as_block_source(cost_matrix)
    n, _ = _source_shape(source)
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
    facilities = _ByFacility(source, memory_budget)

    best_centers: Optional[np.ndarray] = None
    feasible_at: Optional[int] = None
    probe_rounds = 0
    # Batched binary search over the sorted radius guesses for the smallest
    # feasible one: every round probes ``probe_batch`` radii, then narrows
    # [lo, hi] using the monotone feasibility pattern (infeasible below,
    # feasible above).
    lo, hi = 0, radii.size - 1
    while lo <= hi:
        if hi - lo + 1 <= probe_batch:
            mids = list(range(lo, hi + 1))
        else:
            interior = np.linspace(lo, hi, probe_batch + 2)[1:-1]
            mids = sorted(set(int(np.clip(round(x), lo, hi)) for x in interior))
        probe_rounds += 1
        # The greedies run in ascending order; everything past the first
        # feasible probe would be discarded, so it is never evaluated.
        first_feasible = None
        seeds = facilities.round_gains(radii[mids], w)
        for pos, (mid, gain) in enumerate(zip(mids, seeds)):
            centers, uncovered = _greedy_cover(
                facilities, w, k, float(radii[mid]), expansion, gain
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
        # No radius guess was feasible (can only happen with an aggressive
        # candidate subsample); fall back to the largest radius greedy.
        best_centers, _ = _greedy_cover(facilities, w, k, float(radii[-1]), expansion)
        if best_centers.size == 0:
            best_centers = np.asarray([0], dtype=int)
        feasible_at = radii.size - 1
    del facilities  # the copy is done with; the assignment streams the source

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


__all__ = ["kcenter_with_outliers", "candidate_radii"]
