"""Outlier-budget allocation across sites (Algorithm 1 lines 7-14, Lemmas 3.3/3.4).

The coordinator receives one convex, non-increasing cost profile per site and
must split a budget of ``rho * t`` ignored points so that the *sum of local
costs* is minimised:

    minimise  sum_i f_i(t_i)   subject to  sum_i t_i <= rho * t.

Because every ``f_i`` is convex, the greedy that repeatedly grants one more
ignored point to the site with the largest marginal gain ``l(i, q)`` is
optimal (Lemma 3.3).  The paper implements the greedy as a single rank
selection: stably sort all marginals ``{l(i, q)}`` in decreasing order
(ties broken by the lexicographic order of ``(i, q)``) and grant exactly the
top ``rho * t`` of them.  Site ``i`` then receives ``t_i`` equal to the number
of its own marginals among the winners — which, by monotonicity of
``l(i, .)`` in ``q``, are exactly ``q = 1..t_i``.

The site owning the marginal of rank exactly ``rho * t`` is the *exceptional*
site ``i_0``: its ``t_{i_0}`` may fall strictly inside a hull segment and is
snapped up to the next hull vertex by the caller (Algorithm 1, line 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class AllocationResult:
    """Outcome of the budget allocation.

    Attributes
    ----------
    t_allocated:
        Per-site number of ignored points ``t_i`` (before any vertex snapping).
    threshold:
        The marginal value ``l(i_0, q_0)`` of rank ``budget``.
    exceptional_site:
        The site ``i_0`` owning the rank-``budget`` marginal, or ``None`` when
        the budget exceeds the number of positive marginals (every site simply
        takes everything useful).
    exceptional_q:
        The within-site index ``q_0`` of that marginal.
    budget:
        The requested total budget (``rho * t``).
    """

    t_allocated: np.ndarray
    threshold: float
    exceptional_site: Optional[int]
    exceptional_q: Optional[int]
    budget: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t_allocated = np.asarray(self.t_allocated, dtype=int)

    @property
    def total_allocated(self) -> int:
        """Sum of the per-site allocations."""
        return int(self.t_allocated.sum())


def allocate_outlier_budget(
    marginals: Sequence[np.ndarray],
    budget: int,
) -> AllocationResult:
    """Split ``budget`` ignored points across sites by stable rank selection.

    Parameters
    ----------
    marginals:
        One array per site; entry ``q-1`` holds ``l(i, q) = f_i(q-1) - f_i(q)``.
        Each array must be non-negative and non-increasing (convexity of
        ``f_i``); arrays may have different lengths (a site cannot ignore more
        points than it holds).
    budget:
        Total number of ignored points to grant (the paper's ``rho * t``).

    Returns
    -------
    AllocationResult
        ``t_allocated[i]`` counts how many of site ``i``'s marginals rank in
        the top ``budget`` under the stable decreasing order.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    s = len(marginals)
    if s == 0:
        raise ValueError("need at least one site")
    cleaned: List[np.ndarray] = []
    for i, m in enumerate(marginals):
        arr = np.asarray(m, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"marginals of site {i} must be one-dimensional")
        if np.any(arr < -1e-12):
            raise ValueError(f"marginals of site {i} must be non-negative")
        if arr.size > 1 and np.any(np.diff(arr) > 1e-9 * np.maximum(1.0, arr[:-1])):
            raise ValueError(
                f"marginals of site {i} must be non-increasing (convexity of f_i)"
            )
        cleaned.append(np.maximum(arr, 0.0))

    t_allocated = np.zeros(s, dtype=int)
    if budget == 0:
        return AllocationResult(
            t_allocated=t_allocated,
            threshold=np.inf,
            exceptional_site=None,
            exceptional_q=None,
            budget=0,
        )

    site_ids = np.concatenate(
        [np.full(arr.size, i, dtype=int) for i, arr in enumerate(cleaned)]
    ) if any(arr.size for arr in cleaned) else np.empty(0, dtype=int)
    q_ids = np.concatenate(
        [np.arange(1, arr.size + 1, dtype=int) for arr in cleaned]
    ) if site_ids.size else np.empty(0, dtype=int)
    values = np.concatenate(cleaned) if site_ids.size else np.empty(0, dtype=float)

    if values.size == 0:
        return AllocationResult(
            t_allocated=t_allocated,
            threshold=0.0,
            exceptional_site=None,
            exceptional_q=None,
            budget=int(budget),
        )

    # Stable sort: decreasing value, ties broken by increasing (site, q) —
    # footnote 3 of the paper.  lexsort's last key is the primary one.
    order = np.lexsort((q_ids, site_ids, -values))
    take = min(int(budget), order.size)
    winners = order[:take]
    np.add.at(t_allocated, site_ids[winners], 1)

    rank_entry = order[take - 1]
    threshold = float(values[rank_entry])
    exceptional_site = int(site_ids[rank_entry])
    exceptional_q = int(q_ids[rank_entry])

    return AllocationResult(
        t_allocated=t_allocated,
        threshold=threshold,
        exceptional_site=exceptional_site,
        exceptional_q=exceptional_q,
        budget=int(budget),
        metadata={"n_marginals": int(values.size), "taken": int(take)},
    )


__all__ = [
    "AllocationResult",
    "allocate_outlier_budget",
]
