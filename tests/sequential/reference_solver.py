"""Reference copies of the one-swap-at-a-time solver, for oracle tests.

``reference_trim`` is the greedy median/means trim written as a loop over
the demands, and ``reference_local_search`` is single-swap local search
that scores each (position, candidate) swap with its own trim.  The library
scores all swaps of an iteration as blocks (``repro.sequential.assignment.
trim_rows``); these loops define the results it must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.sequential.assignment import nearest_center_distances
from repro.sequential.local_search import _first_second_nearest, plus_plus_seeding
from repro.utils.rng import ensure_rng


def reference_trim(unit_costs, weights, t):
    """Drop up to ``t`` weight from the most expensive demands, one at a time.

    Returns ``(dropped, cost)`` like ``trim_outliers`` for median/means.
    """
    unit_costs = np.asarray(unit_costs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    dropped = np.zeros(unit_costs.size, dtype=float)
    budget = float(t)
    for idx in np.argsort(-unit_costs, kind="stable"):
        if budget <= 0:
            break
        w = weights[idx]
        if w <= 0:
            continue
        take = min(w, budget)
        dropped[idx] = take
        budget -= take
    served = weights - dropped
    return dropped, float(np.dot(served, unit_costs))


def reference_local_search(
    cost_matrix,
    k,
    t,
    weights=None,
    *,
    objective="median",
    init_centers=None,
    max_iter=40,
    sample_size=None,
    min_relative_gain=1e-4,
    rng=None,
):
    """Single-swap local search with one ``reference_trim`` per swap.

    ``objective`` is ``"median"`` or ``"means"``; both trim alike, since a
    means cost matrix holds squared distances already.  Returns a dict with
    the fields the oracle compares.
    """
    assert objective in ("median", "means")
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    n, n_fac = cost_matrix.shape
    k = min(k, n_fac)
    w = np.ones(n, dtype=float) if weights is None else np.asarray(weights, dtype=float)
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

    def trimmed_cost(unit):
        return reference_trim(unit, w, t)[1]

    first_idx, first_val, second_val = _first_second_nearest(cost_matrix[:, centers])
    current_cost = trimmed_cost(first_val)
    evaluations = 1
    iterations = 0

    for iterations in range(1, max_iter + 1):
        open_set = set(int(c) for c in centers)
        closed = np.asarray([f for f in range(n_fac) if f not in open_set], dtype=int)
        if closed.size == 0:
            break
        if closed.size > sample_size:
            candidates = generator.choice(closed, size=sample_size, replace=False)
        else:
            candidates = closed

        best_gain = 0.0
        best_swap = None
        for pos in range(centers.size):
            without = np.where(first_idx == pos, second_val, first_val)
            for f in candidates:
                cand_cost = trimmed_cost(np.minimum(without, cost_matrix[:, f]))
                evaluations += 1
                gain = current_cost - cand_cost
                if gain > best_gain:
                    best_gain = gain
                    best_swap = (pos, int(f))

        if best_swap is None or best_gain < min_relative_gain * max(current_cost, 1e-12):
            break
        pos, f = best_swap
        centers = centers.copy()
        centers[pos] = f
        first_idx, first_val, second_val = _first_second_nearest(cost_matrix[:, centers])
        current_cost = trimmed_cost(first_val)

    unit, nearest = nearest_center_distances(cost_matrix, centers)
    dropped, cost = reference_trim(unit, w, t)
    assignment = nearest.copy()
    assignment[((w - dropped) <= 1e-12) & (w > 0)] = -1
    return {
        "centers": np.asarray(centers, dtype=int),
        "cost": cost,
        "assignment": assignment,
        "dropped_weight": dropped,
        "iterations": iterations,
        "evaluations": evaluations,
    }
