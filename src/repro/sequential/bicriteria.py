"""The Theorem 3.1 bicriteria interface.

Theorem 3.1 of the paper provides, for any ``eps > 0``, either

* ``sol(Z, k, (1 + eps) t)`` — the outlier budget is relaxed, or
* ``sol(Z, (1 + eps) k, t)`` — the number of centers is relaxed,

with cost at most ``max{6, 6/eps}`` times the ``(k, t)`` optimum.  The
distributed algorithms only ever use this statement as a black box, both at
the sites (``sol(A_i, 2k, q)``) and at the coordinator (the final weighted
clustering).  This module exposes exactly that interface and routes to the
appropriate concrete solver:

* median / means  -> :func:`repro.sequential.local_search.local_search_partial`
* center          -> :func:`repro.sequential.kcenter_outliers.kcenter_with_outliers`

See the Substitutions table in ``DESIGN.md`` for why a local-search stand-in
preserves the paper's measured quantities (communication, rounds, shapes).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.metrics.blocked import MemoryBudgetLike
from repro.metrics.cost_matrix import validate_objective
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.sequential.local_search import local_search_partial
from repro.sequential.solution import ClusterSolution
from repro.utils.rng import RngLike


def relaxed_budgets(k: int, t: float, epsilon: float, relax: str) -> tuple:
    """The ``(k', t')`` pair used by the Theorem 3.1 interface.

    ``relax="outliers"`` keeps ``k`` and allows ``floor((1 + eps) t)`` outlier
    weight; ``relax="centers"`` opens ``ceil((1 + eps) k)`` centers but keeps
    the outlier budget at ``t``.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    relax = str(relax).lower()
    if relax == "outliers":
        return k, math.floor((1.0 + epsilon) * t + 1e-9)
    if relax == "centers":
        return math.ceil((1.0 + epsilon) * k - 1e-9), t
    raise ValueError(f"relax must be 'outliers' or 'centers', got {relax!r}")


def bicriteria_solve(
    cost_matrix: np.ndarray,
    k: int,
    t: float,
    *,
    epsilon: float = 1.0,
    relax: str = "outliers",
    objective: str = "median",
    weights: Optional[np.ndarray] = None,
    rng: RngLike = None,
    memory_budget: MemoryBudgetLike = None,
    **solver_kwargs,
) -> ClusterSolution:
    """Solve the weighted partial clustering problem with one relaxed budget.

    Parameters
    ----------
    cost_matrix:
        ``(n_demands, n_facilities)`` assignment costs (squared already for
        the means objective, raw distances for median/center).
    k, t:
        The *unrelaxed* budgets of the underlying ``(k, t)`` problem.
    epsilon:
        Relaxation parameter of Theorem 3.1.
    relax:
        Which budget to relax: ``"outliers"`` (default) or ``"centers"``.
    objective:
        ``"median"``, ``"means"`` or ``"center"``.
    weights:
        Per-demand weights.
    rng:
        Seed or generator forwarded to the stochastic solvers.
    memory_budget:
        Byte cap on transient blocks, forwarded to the concrete solver (the
        cost matrix itself may be a read-only memmap shard); results are
        bit-identical for every budget.
    solver_kwargs:
        Extra keyword arguments forwarded to the concrete solver.
    """
    obj = validate_objective(objective)
    k_used, t_used = relaxed_budgets(k, t, epsilon, relax)
    k_used = max(1, int(k_used))

    if obj == "center":
        solution = kcenter_with_outliers(
            cost_matrix,
            k_used,
            t_used,
            weights=weights,
            memory_budget=memory_budget,
            **solver_kwargs,
        )
    else:
        solution = local_search_partial(
            cost_matrix,
            k_used,
            t_used,
            weights=weights,
            objective=obj,
            rng=rng,
            memory_budget=memory_budget,
            **solver_kwargs,
        )
    solution.metadata.update(
        {
            "bicriteria_relax": relax,
            "bicriteria_epsilon": float(epsilon),
            "k_requested": int(k),
            "t_requested": float(t),
            "k_used": int(k_used),
            "t_used": float(t_used),
        }
    )
    return solution


__all__ = ["bicriteria_solve", "relaxed_budgets"]
