"""Realized objective values on the full data.

A protocol's headline output is a set of centers plus an outlier budget; the
*realized* cost of that output is obtained by assigning every input point to
its nearest returned center and excluding the budgeted number of most
expensive points.  This is the quantity all approximation ratios the
benchmarks record are computed from (it is exactly the objective of
Definition 1.1 for the returned center set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.cost_matrix import build_cost_matrix, validate_objective
from repro.sequential.assignment import assign_with_outliers
from repro.sequential.solution import ClusterSolution


@dataclass
class EvaluatedSolution:
    """A realized clustering of the full data for a fixed center set.

    Attributes
    ----------
    cost:
        Objective value with ``outlier_budget`` points excluded.
    centers:
        The (global) centers that were evaluated.
    solution:
        The underlying :class:`ClusterSolution` over all evaluated points.
    outlier_budget:
        Number of points that were allowed to be excluded.
    """

    cost: float
    centers: np.ndarray
    solution: ClusterSolution
    outlier_budget: float
    metadata: dict = field(default_factory=dict)

    @property
    def outlier_indices(self) -> np.ndarray:
        """Indices of the points the evaluation excluded."""
        return self.solution.outlier_indices


def evaluate_centers(
    metric: MetricSpace,
    centers: Sequence[int],
    outlier_budget: float,
    *,
    objective: str = "median",
    indices: Optional[Sequence[int]] = None,
    weights: Optional[np.ndarray] = None,
) -> EvaluatedSolution:
    """Realized ``(k, t)`` objective of a fixed center set on the full data.

    Parameters
    ----------
    metric:
        The global metric.
    centers:
        Global indices of the centers to evaluate.
    outlier_budget:
        How many points (or how much weight) may be excluded.
    objective:
        ``"median"``, ``"means"`` or ``"center"``.
    indices:
        Points to evaluate over (default: every point of the metric).
    weights:
        Optional per-point weights.
    """
    obj = validate_objective(objective)
    centers = np.asarray(centers, dtype=int)
    if centers.size == 0:
        raise ValueError("cannot evaluate an empty center set")
    idx = np.arange(len(metric)) if indices is None else np.asarray(indices, dtype=int)
    cost_matrix = build_cost_matrix(metric, idx, centers, obj)
    solution = assign_with_outliers(
        cost_matrix, np.arange(centers.size), outlier_budget, weights=weights, objective=obj
    )
    # Express the assignment in global indices for readability.
    global_solution = solution.relabel(centers)
    return EvaluatedSolution(
        cost=float(solution.cost),
        centers=centers,
        solution=global_solution,
        outlier_budget=float(outlier_budget),
        metadata={"n_points": int(idx.size), "objective": obj},
    )


def outlier_recovery(
    reported_outliers: Sequence[int],
    true_outlier_indices: Sequence[int],
) -> Dict[str, float]:
    """Precision / recall of the reported outliers against planted ground truth.

    The paper makes no recovery claim — the objectives only require that
    *some* ``t`` points be droppable — but recovery is a useful sanity signal
    on workloads with planted outliers, so the benchmark tables report it.
    """
    reported = set(int(i) for i in np.asarray(reported_outliers, dtype=int))
    truth = set(int(i) for i in np.asarray(true_outlier_indices, dtype=int))
    if not reported and not truth:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    hit = len(reported & truth)
    precision = hit / len(reported) if reported else 0.0
    recall = hit / len(truth) if truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


__all__ = ["EvaluatedSolution", "evaluate_centers", "outlier_recovery"]
