"""Theorem 3.10: sub-quadratic centralized partial clustering by sequential simulation.

The distributed algorithm is an unusual tool for a *centralized* speed-up:
split the data into ``s`` pieces, run Algorithm 1's site computation on each
piece one after another (each costs ``Õ((n/s)^2)``), then run the coordinator
step on the ``O(sk + t)`` surviving representatives.  Balancing the two terms
(``s = n^{2/3}`` when the local solver is quadratic) gives total work
``Õ(t^2 + n^{4/3} k^2)`` instead of ``Õ(n^2)``; repeating the construction
drives the exponent towards ``1 + alpha`` (Theorem 3.10).

This module exposes the one-level simulation (the measurable claim — the
benchmarks verify the sub-quadratic scaling of wall-clock time against the
direct quadratic solver) and reports the piece count and per-phase timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.algorithm1 import distributed_partial_median
from repro.core.algorithm2_center import distributed_partial_center
from repro.distributed.instance import DistributedInstance
from repro.distributed.partition import partition_balanced
from repro.distributed.result import DistributedResult
from repro.metrics.base import MetricSpace
from repro.metrics.blocked import MemoryBudgetLike
from repro.metrics.cost_matrix import validate_objective
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.timing import timed


def default_piece_count(n: int, k: int) -> int:
    """The balancing choice of Lemma 3.9 for a quadratic local solver.

    ``s = n^{2/3}`` balances ``s (n/s)^2`` against ``s^2``; the count is
    clamped so every piece keeps at least ``max(2k, 8)`` points (tiny pieces
    make the local ``2k``-center solves degenerate).
    """
    if n < 4:
        return 1
    s = int(round(n ** (2.0 / 3.0)))
    min_piece = max(2 * k, 8)
    s = min(s, max(1, n // min_piece))
    return max(1, s)


@dataclass
class SubquadraticResult:
    """Outcome of the sequentially simulated distributed algorithm.

    Attributes
    ----------
    centers:
        Global indices of the chosen centers.
    outlier_budget:
        Number of points the solution may exclude (``(1 + eps) t`` for
        median/means, ``t`` for center).
    n_pieces:
        Number of pieces the data was split into (the simulated ``s``).
    distributed:
        The full :class:`DistributedResult` of the simulated protocol
        (communication is meaningless here but the per-phase timings are the
        quantity Theorem 3.10 is about).
    wall_time:
        Total wall-clock seconds of the simulation.
    """

    centers: np.ndarray
    outlier_budget: float
    objective: str
    n_pieces: int
    distributed: DistributedResult
    wall_time: float
    metadata: dict = field(default_factory=dict)

    @property
    def site_time_total(self) -> float:
        """Sequentially summed piece-local time (the ``s * (n/s)^2`` term)."""
        return self.distributed.site_time_total

    @property
    def coordinator_time(self) -> float:
        """Final combine time (the ``(sk + t)^2`` term)."""
        return self.distributed.coordinator_time


def subquadratic_partial_clustering(
    metric: MetricSpace,
    k: int,
    t: int,
    *,
    objective: str = "median",
    n_pieces: Optional[int] = None,
    epsilon: float = 0.5,
    rho: float = 2.0,
    rng: RngLike = None,
    local_solver_kwargs: Optional[dict] = None,
    coordinator_solver_kwargs: Optional[dict] = None,
    memory_budget: MemoryBudgetLike = None,
) -> SubquadraticResult:
    """Centralized ``(k, (1+eps)t)``-median/means (or ``(k, t)``-center) in sub-quadratic time.

    Parameters
    ----------
    metric:
        The full input as a metric space.
    k, t:
        Center and outlier budgets.
    objective:
        ``"median"``, ``"means"`` or ``"center"``.
    n_pieces:
        Number of pieces ``s``; defaults to the Lemma 3.9 balancing choice.
    epsilon, rho:
        Forwarded to the simulated distributed algorithm.
    rng:
        Seed or generator (controls both the split and the local solvers).
    memory_budget:
        Byte cap on any single distance/cost block of the simulation (piece
        matrices larger than the budget stream from disk shards); results
        are bit-identical for every setting.
    """
    obj = validate_objective(objective)
    n = len(metric)
    generator = ensure_rng(rng)
    pieces = default_piece_count(n, k) if n_pieces is None else int(n_pieces)
    if pieces < 1:
        raise ValueError(f"n_pieces must be >= 1, got {pieces}")
    pieces = min(pieces, max(1, n // max(1, min(n, 2 * k))))
    pieces = max(pieces, 1)

    partition = partition_balanced(n, pieces, rng=generator)
    instance = DistributedInstance.from_partition(metric, partition, k, t, obj)

    with timed() as clock:
        if obj == "center":
            result = distributed_partial_center(
                instance,
                rho=rho,
                rng=generator,
                coordinator_solver_kwargs=coordinator_solver_kwargs,
                memory_budget=memory_budget,
            )
        else:
            result = distributed_partial_median(
                instance,
                epsilon=epsilon,
                rho=rho,
                rng=generator,
                local_solver_kwargs=local_solver_kwargs,
                coordinator_solver_kwargs=coordinator_solver_kwargs,
                memory_budget=memory_budget,
            )

    return SubquadraticResult(
        centers=result.centers,
        outlier_budget=result.outlier_budget,
        objective=obj,
        n_pieces=pieces,
        distributed=result,
        wall_time=clock["seconds"],
        metadata={
            "n": int(n),
            "k": int(k),
            "t": int(t),
            "epsilon": float(epsilon),
            "rho": float(rho),
            "piece_sizes": instance.site_sizes.tolist(),
        },
    )


__all__ = ["SubquadraticResult", "subquadratic_partial_clustering", "default_piece_count"]
