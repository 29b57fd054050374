"""Cost-matrix construction shared by the sequential solvers.

All sequential clustering routines in :mod:`repro.sequential` accept an
explicit demand-by-facility cost matrix.  This module centralises the logic
that turns a metric + objective into such a matrix, in particular the
squaring used for the means objective, and — through the
:mod:`repro.metrics.blocked` layer — the memory discipline: under a
``memory_budget`` the matrix is produced in row blocks and, when the result
itself would not fit the budget, streamed into a disk-backed
:class:`~repro.metrics.blocked.MemmapCostShard` whose read-only memmap is
returned in its place.  Either way the entries are bit-identical to the
dense path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.blocked import MemoryBudgetLike, materialize

VALID_OBJECTIVES = ("median", "means", "center")


def validate_objective(objective: str) -> str:
    """Normalise and validate an objective name."""
    obj = str(objective).lower()
    if obj not in VALID_OBJECTIVES:
        raise ValueError(f"objective must be one of {VALID_OBJECTIVES}, got {objective!r}")
    return obj


def build_cost_matrix(
    metric: MetricSpace,
    demands: Sequence[int],
    facilities: Sequence[int],
    objective: str = "median",
    *,
    memory_budget: MemoryBudgetLike = None,
    workdir: Optional[str] = None,
) -> np.ndarray:
    """Assignment-cost matrix for the given objective.

    For ``median`` and ``center`` the cost is the distance itself; for
    ``means`` it is the squared distance (Definition 1.1).

    Parameters
    ----------
    memory_budget:
        ``None`` (default) materialises the matrix densely in one call.
        Otherwise the matrix is built in row blocks of at most this many
        bytes and, when larger than the budget, lives in an ``np.memmap``
        under ``workdir`` instead of RAM (see :mod:`repro.metrics.blocked`).
        Entries are bit-identical either way.
    workdir:
        Directory owning any spilled shard files; the caller controls their
        lifetime (protocol drivers use a scratch directory per run).
    """
    obj = validate_objective(objective)
    if memory_budget is None:
        d = metric.pairwise(demands, facilities)
        if obj == "means":
            return d * d
        return d
    transform = (lambda block, rs: block * block) if obj == "means" else None
    return materialize(
        metric,
        np.asarray(demands, dtype=int),
        np.asarray(facilities, dtype=int),
        transform=transform,
        memory_budget=memory_budget,
        workdir=workdir,
    )


__all__ = [
    "VALID_OBJECTIVES",
    "validate_objective",
    "build_cost_matrix",
]
