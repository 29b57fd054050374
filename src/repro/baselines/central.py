"""Strong centralized reference solutions.

The paper's guarantees are stated against the (intractable) optimum; the
benchmarks use the best solution found by a beefed-up single-machine solver —
several restarts of the outlier-aware local search (median/means) or the full
Charikar greedy (center) on the complete data — as the practical stand-in for
``Copt`` (see the Substitutions table in ``DESIGN.md``).  Every
"approximation ratio" the benchmarks measure is relative to this reference,
so ratios below 1 are possible (the distributed algorithm may beat the
reference) and ratios slightly above the paper's constants indicate
heuristic slack rather than a broken bound.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.cost_matrix import build_cost_matrix, validate_objective
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.sequential.local_search import local_search_partial
from repro.sequential.solution import ClusterSolution
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


def centralized_reference(
    metric: MetricSpace,
    k: int,
    t: int,
    *,
    objective: str = "median",
    indices: Optional[Sequence[int]] = None,
    n_restarts: int = 3,
    max_iter: int = 80,
    sample_size: Optional[int] = 48,
    rng: RngLike = None,
    **solver_kwargs,
) -> ClusterSolution:
    """Best-of-``n_restarts`` single-machine ``(k, t)`` solution on the full data.

    Parameters
    ----------
    metric:
        The global metric space.
    k, t:
        Center and outlier budgets (the reference uses exactly ``t`` outliers,
        i.e. no bicriteria relaxation).
    objective:
        ``"median"``, ``"means"`` or ``"center"``.
    indices:
        Optional subset of points to solve on (defaults to all points).
    n_restarts:
        Number of independent local-search restarts (median/means only).
    max_iter, sample_size:
        Local-search controls; ``sample_size=None`` evaluates every facility
        as an insertion candidate each round (slow but thorough).
    rng:
        Seed or generator.

    Returns
    -------
    ClusterSolution
        Centers and assignment are expressed in *global* point indices (a
        solve on ``indices`` is relabelled through them).
    """
    obj = validate_objective(objective)
    idx = np.arange(len(metric)) if indices is None else np.asarray(indices, dtype=int)
    cost_matrix = build_cost_matrix(metric, idx, idx, obj)

    if obj == "center":
        solution = kcenter_with_outliers(cost_matrix, k, t, **solver_kwargs)
        solution.metadata["reference"] = "charikar_full"
        return solution if indices is None else solution.relabel(idx)

    generator = ensure_rng(rng)
    rngs = spawn_rngs(generator, max(1, n_restarts))
    best: Optional[ClusterSolution] = None
    for restart_rng in rngs:
        candidate = local_search_partial(
            cost_matrix,
            k,
            t,
            objective=obj,
            max_iter=max_iter,
            sample_size=sample_size,
            rng=restart_rng,
            **solver_kwargs,
        )
        if best is None or candidate.cost < best.cost:
            best = candidate
    assert best is not None
    best.metadata["reference"] = "local_search_multi_restart"
    best.metadata["n_restarts"] = int(n_restarts)
    return best if indices is None else best.relabel(idx)


__all__ = ["centralized_reference"]
