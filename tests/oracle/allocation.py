"""Exact outlier-budget allocation by dynamic programming (Lemma 3.3 oracle)."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def optimal_allocation_dp(
    cost_tables: Sequence[np.ndarray],
    budget: int,
) -> tuple:
    """Exact minimiser of ``sum_i f_i(t_i)`` s.t. ``sum_i t_i <= budget`` by dynamic programming.

    ``cost_tables[i][q]`` is ``f_i(q)`` for ``q = 0..len-1`` (arbitrary, not
    necessarily convex).  The tests use it to certify that the rank-selection
    allocation (:func:`repro.core.allocation.allocate_outlier_budget`) is
    optimal whenever the inputs really are convex.

    The min-plus inner product per site is vectorised: the candidate matrix
    ``C[b, q] = dp[b - q] + f_i(q)`` is assembled from a sliding window over
    the padded previous row and reduced with one ``argmin``, so exactly equal
    candidates resolve to the smallest ``q``.

    Returns ``(t_allocated, optimal_cost)``.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    tables = [np.asarray(tbl, dtype=float) for tbl in cost_tables]
    for i, tbl in enumerate(tables):
        if tbl.ndim != 1 or tbl.size == 0:
            raise ValueError(f"cost table of site {i} must be a non-empty 1-D array")
    s = len(tables)

    # dp[b] = best total cost using budget exactly <= b over sites processed so far.
    dp = np.zeros(budget + 1)
    choice = np.zeros((s, budget + 1), dtype=int)
    for i, tbl in enumerate(tables):
        max_q = min(tbl.size - 1, budget)
        # padded[b + max_q - q] = dp[b - q] for q <= b, +inf otherwise, so a
        # reversed length-(max_q + 1) window ending at b enumerates dp[b - q]
        # for q = 0..max_q.
        padded = np.concatenate([np.full(max_q, np.inf), dp])
        windows = np.lib.stride_tricks.sliding_window_view(padded, max_q + 1)[:, ::-1]
        cand = windows + tbl[: max_q + 1]
        best_q = np.argmin(cand, axis=1)
        dp = cand[np.arange(budget + 1), best_q]
        choice[i] = best_q

    # Trace back the allocation from the full budget.
    t_allocated = np.zeros(s, dtype=int)
    b = int(budget)
    for i in range(s - 1, -1, -1):
        q = int(choice[i, b])
        t_allocated[i] = q
        b -= q
    return t_allocated, float(dp[budget])
