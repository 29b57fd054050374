"""Approximation-ratio and communication comparisons between protocol runs."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.evaluation import evaluate_centers
from repro.distributed.result import DistributedResult
from repro.metrics.base import MetricSpace
from repro.sequential.solution import ClusterSolution


def approximation_ratio(cost: float, reference_cost: float) -> float:
    """``cost / reference_cost`` with graceful handling of a zero reference."""
    if reference_cost < 0 or cost < 0:
        raise ValueError("costs must be non-negative")
    if reference_cost == 0.0:
        return 1.0 if cost == 0.0 else float("inf")
    return float(cost / reference_cost)


def summarize_result(
    metric: MetricSpace,
    result: DistributedResult,
    *,
    reference: Optional[ClusterSolution] = None,
    true_outliers: Optional[Sequence[int]] = None,
    label: Optional[str] = None,
) -> Dict[str, float]:
    """One comparison row: realized cost, ratio, communication, rounds, times.

    Parameters
    ----------
    metric:
        The global metric the result's centers live in.
    result:
        A protocol run.
    reference:
        Optional centralized reference solution; when given, the row includes
        the measured approximation ratio against it.
    true_outliers:
        Optional planted outlier indices for recovery statistics.
    label:
        Row label (defaults to the protocol's own name).
    """
    evaluated = evaluate_centers(
        metric, result.centers, result.outlier_budget, objective=result.objective
    )
    row: Dict[str, float] = {
        "label": label or result.metadata.get("algorithm", "protocol"),
        "objective": result.objective,
        "realized_cost": evaluated.cost,
        "protocol_cost": float(result.cost),
        "n_centers": float(result.n_centers),
        "outlier_budget": float(result.outlier_budget),
        "rounds": float(result.rounds),
        "total_words": result.total_words,
        "site_time_max": result.site_time_max,
        "site_time_total": result.site_time_total,
        "coordinator_time": float(result.coordinator_time),
    }
    if reference is not None:
        row["reference_cost"] = float(reference.cost)
        row["approx_ratio"] = approximation_ratio(evaluated.cost, float(reference.cost))
    if true_outliers is not None and result.outliers is not None:
        from repro.analysis.evaluation import outlier_recovery

        recovery = outlier_recovery(result.outliers, true_outliers)
        row["outlier_recall"] = recovery["recall"]
        row["outlier_precision"] = recovery["precision"]
    return row


def compare_results(
    metric: MetricSpace,
    results: Dict[str, DistributedResult],
    *,
    reference: Optional[ClusterSolution] = None,
    true_outliers: Optional[Sequence[int]] = None,
) -> list:
    """Comparison rows for several protocol runs on the same instance."""
    return [
        summarize_result(
            metric, result, reference=reference, true_outliers=true_outliers, label=name
        )
        for name, result in results.items()
    ]


def scaling_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Used by the Theorem 3.10 benchmark to certify sub-quadratic runtime
    scaling (the fitted exponent of the direct solver should be close to 2 and
    that of the simulated distributed solver well below it).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two (x, y) pairs")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("scaling fits need positive values")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


__all__ = [
    "approximation_ratio",
    "summarize_result",
    "compare_results",
    "scaling_exponent",
]
