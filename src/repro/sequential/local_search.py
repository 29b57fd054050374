"""Outlier-aware weighted local search for ``(k, t)``-median / means.

This is the practical stand-in for the Theorem 3.1 bicriteria black box (see
the Substitutions table in ``DESIGN.md``): single-swap local search over the
facility set, where every candidate configuration is evaluated with the
outlier-trimmed objective of :func:`repro.sequential.assignment.trim_rows`
(through its costs-only form, :func:`~repro.sequential.assignment.trim_row_costs`).
Single-swap local search is a classical constant-factor heuristic for k-median
(Arya et al.), and trimming the ``t`` heaviest assignment costs extends it to
the partial objective; the distributed machinery built on top only relies on
the *interface* ``sol(Z, k, q)``.

The implementation keeps the per-iteration cost low enough for the paper's
``Õ(n_i^2)`` site budget:

* facilities considered for insertion are sampled each round
  (``sample_size``), so a round scores ``k * sample_size`` swaps.  With unit
  weights and a whole ``t`` (every site search), a swap's cost needs only
  the set of its ``t`` most expensive demands, which ``np.partition``
  selects in ``O(n)``, in no order; otherwise the trim stable-sorts the
  ``w`` demands its outlier budget covers, ``O(n + w log w)`` instead of
  ``O(n log n)``;
* removal costs are computed from the first/second-nearest open centers, so
  no candidate evaluation ever rescans the whole ``k``-column block;
* the ``k * sample_size`` swaps of a round are scored together, as tiles of
  ``(rows, n)`` unit costs through one vectorised greedy trim, instead of one
  trim call per swap.  The winner is the first largest gain in (position,
  candidate) order, so results are bitwise those of scoring swaps one by one;
* an accepted swap's cost is the one its tile scored, so only a search's
  first configuration and its final assignment are trimmed on their own.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.metrics.blocked import DEFAULT_CACHE_TARGET, MemoryBudgetLike, effective_tile_bytes
from repro.metrics.cost_matrix import validate_objective
from repro.sequential.assignment import assign_with_outliers, trim_outliers, trim_row_costs
from repro.sequential.solution import ClusterSolution
from repro.utils.rng import RngLike, ensure_rng


def plus_plus_seeding(
    cost_matrix: np.ndarray,
    k: int,
    weights: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-median++ style seeding on an explicit cost matrix.

    The first facility is drawn proportionally to demand weight; every
    subsequent facility is drawn proportionally to ``weight * current service
    cost`` of the demand nearest to it, which spreads seeds across clusters.
    """
    n, n_fac = cost_matrix.shape
    k = min(k, n_fac)
    chosen: list = []
    # Facilities and demands may differ; pick the facility nearest to the
    # sampled demand as its representative.
    demand_probs = weights / weights.sum() if weights.sum() > 0 else np.full(n, 1.0 / n)
    first_demand = int(rng.choice(n, p=demand_probs))
    chosen.append(int(np.argmin(cost_matrix[first_demand])))
    current = cost_matrix[:, chosen[0]].copy()
    while len(chosen) < k:
        scores = weights * current
        total = scores.sum()
        if total <= 0:
            # All demands already served at zero cost; pick arbitrary unused facilities.
            unused = [f for f in range(n_fac) if f not in chosen]
            if not unused:
                break
            chosen.append(int(rng.choice(unused)))
        else:
            demand = int(rng.choice(n, p=scores / total))
            fac = int(np.argmin(cost_matrix[demand]))
            if fac in chosen:
                # Nearest facility already open; fall back to a random unused one.
                unused = [f for f in range(n_fac) if f not in chosen]
                if not unused:
                    break
                fac = int(rng.choice(unused))
            chosen.append(fac)
        np.minimum(current, cost_matrix[:, chosen[-1]], out=current)
    return np.asarray(chosen, dtype=int)


def _first_second_nearest(block: np.ndarray) -> tuple:
    """Per-row nearest and second-nearest values/columns of an ``(n, k)`` block."""
    n, k = block.shape
    if k == 1:
        first_idx = np.zeros(n, dtype=int)
        first_val = block[:, 0].copy()
        second_val = np.full(n, np.inf)
        return first_idx, first_val, second_val
    order = np.argpartition(block, 1, axis=1)
    rows = np.arange(n)
    first_idx = order[:, 0]
    second_idx = order[:, 1]
    first_val = block[rows, first_idx]
    second_val = block[rows, second_idx]
    # argpartition does not guarantee order within the partition.
    swap = first_val > second_val
    first_idx[swap], second_idx[swap] = second_idx[swap], first_idx[swap].copy()
    first_val[swap], second_val[swap] = second_val[swap], first_val[swap].copy()
    return first_idx, first_val, second_val


def local_search_partial(
    cost_matrix: np.ndarray,
    k: int,
    t: float,
    weights: Optional[np.ndarray] = None,
    *,
    objective: str = "median",
    init_centers: Optional[Sequence[int]] = None,
    max_iter: int = 40,
    sample_size: Optional[int] = None,
    min_relative_gain: float = 1e-4,
    rng: RngLike = None,
    memory_budget: MemoryBudgetLike = None,
) -> ClusterSolution:
    """Outlier-trimmed single-swap local search for weighted ``(k, t)``-median/means.

    Parameters
    ----------
    cost_matrix:
        ``(n_demands, n_facilities)`` assignment costs (already squared for
        the means objective).
    k:
        Number of centers to open.
    t:
        Outlier budget in demand weight.
    weights:
        Per-demand weights (default all ones).
    objective:
        ``"median"`` or ``"means"`` (``"center"`` callers should use
        :func:`repro.sequential.kcenter_outliers.kcenter_with_outliers`).
    init_centers:
        Optional warm start; defaults to ++-seeding.
    max_iter:
        Maximum number of improvement rounds.
    sample_size:
        Number of candidate insertion facilities sampled per round (default:
        all facilities when there are at most 64, otherwise 32).
    min_relative_gain:
        A swap is applied only if it improves the cost by this relative
        amount; controls termination.
    rng:
        Seed or generator for seeding and candidate sampling.
    memory_budget:
        Byte cap on one tile of swap scores, and forwarded to the final
        assignment pass.  The search reads the candidate columns one tile at
        a time, and a tile holds at most ``effective_tile_bytes(memory_budget)``
        bytes (:data:`~repro.metrics.blocked.DEFAULT_CACHE_TARGET` without a
        budget), at least the ``k`` rows of one candidate.  So the working set
        is one tile, never ``O(n^2)``, and a disk-backed memmap cost matrix is
        paged, not copied.  Results are budget-independent.
    """
    obj = validate_objective(objective)
    if obj == "center":
        raise ValueError("local_search_partial handles median/means; use kcenter_with_outliers for center")
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    n, n_fac = cost_matrix.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    k = min(k, n_fac)
    w = np.ones(n, dtype=float) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    generator = ensure_rng(rng)

    if init_centers is None:
        centers = plus_plus_seeding(cost_matrix, k, w, generator)
    else:
        centers = np.unique(np.asarray(init_centers, dtype=int))
        if centers.size < k:
            extra = plus_plus_seeding(cost_matrix, k, w, generator)
            centers = np.unique(np.concatenate([centers, extra]))[:k]
        centers = centers[:k]

    if sample_size is None:
        sample_size = n_fac if n_fac <= 64 else 32
    sample_size = min(sample_size, n_fac)
    tile_bytes = effective_tile_bytes(memory_budget) or DEFAULT_CACHE_TARGET

    block = cost_matrix[:, centers]
    first_idx, first_val, second_val = _first_second_nearest(block)
    current_cost = trim_outliers(first_val, w, t, obj)[1]
    evaluations = 1
    iterations = 0
    # Every swap tile of the search is a view of this one buffer, so tiles do
    # not each allocate, and page in, a block of up to ``tile_bytes``.
    buffer = np.empty(0)

    for iterations in range(1, max_iter + 1):
        closed_mask = np.ones(n_fac, dtype=bool)
        closed_mask[centers] = False
        closed = np.flatnonzero(closed_mask)
        if closed.size == 0:
            break
        if closed.size > sample_size:
            candidates = generator.choice(closed, size=sample_size, replace=False)
        else:
            candidates = closed

        # Row ``pos`` is every demand's service cost once center ``pos`` closes.
        without = np.where(first_idx == np.arange(centers.size)[:, None], second_val, first_val)
        per_tile = max(1, tile_bytes // (without.nbytes or 1))
        if buffer.size < without.size * min(per_tile, candidates.size):
            buffer = np.empty(without.size * min(per_tile, candidates.size))
        scored = np.empty((centers.size, candidates.size))
        for lo in range(0, candidates.size, per_tile):
            columns = cost_matrix[:, candidates[lo : lo + per_tile]].T
            swapped = buffer[: without.size * len(columns)].reshape(centers.size, len(columns), n)
            np.minimum(without[:, None, :], columns[None, :, :], out=swapped)
            scored[:, lo : lo + per_tile] = trim_row_costs(swapped.reshape(-1, n), w, t).reshape(
                centers.size, -1
            )
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN gain, masked below
            gains = current_cost - scored
        evaluations += gains.size

        # The first largest gain in (position, candidate) order; NaN never wins.
        gains[np.isnan(gains)] = -np.inf
        best = int(np.argmax(gains))
        best_gain = float(gains.flat[best])
        if not best_gain > 0 or best_gain < min_relative_gain * max(current_cost, 1e-12):
            break
        pos, j = divmod(best, candidates.size)
        centers = centers.copy()
        centers[pos] = candidates[j]
        block = cost_matrix[:, centers]
        first_idx, first_val, second_val = _first_second_nearest(block)
        # The winning row holds the new configuration's unit costs (``np.minimum``
        # is exact; only a zero's sign may differ, which no later gain can
        # tell apart), so the cost scored for it is the new current cost.
        current_cost = float(scored.flat[best])

    solution = assign_with_outliers(
        cost_matrix, centers, t, w, objective=obj, memory_budget=memory_budget
    )
    solution.metadata.update(
        {
            "method": "local_search_partial",
            "iterations": iterations,
            "evaluations": evaluations,
        }
    )
    return solution


__all__ = ["local_search_partial", "plus_plus_seeding"]
