"""Combining preclustering solutions at the coordinator (Theorem 2.1 / Corollary 2.2).

Every distributed protocol in this library ends the same way: the coordinator
receives, from each site, a set of weighted *representative points* (the local
centers, weighted by how many points they absorbed) plus a set of unit-weight
points (the local outliers that were shipped explicitly), and solves a
weighted partial clustering problem over their union.  Theorem 2.1 and
Corollary 2.2 of the paper guarantee that a good solution of this induced
weighted problem is a good solution of the original problem.

Sites speak local ids only: a site holds its own points as ``0..n_i-1`` and
names them that way in everything it sends.  The coordinator built the
shards, so it is the only party that maps a site's local id to a global one
(``instance.shards[site][local]``).

This module holds the shared machinery:

* :class:`PreclusterSummary` — what one site contributes to the induced problem;
* :func:`combine_preclusters` — map the summaries to global ids, build the
  weighted instance and solve it with the requested objective/relaxation;
* :func:`member_groups` and :func:`realize_output` — the uncharged output
  step.  Each site groups its points by local center in drop order, and the
  coordinator expands its weighted solution into a per-point assignment and
  outlier set.  Every protocol that names its outliers realizes them here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.instance import DistributedInstance
from repro.metrics.blocked import MemoryBudgetLike
from repro.metrics.cost_matrix import build_cost_matrix, validate_objective
from repro.sequential.bicriteria import bicriteria_solve
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.sequential.solution import ClusterSolution
from repro.utils.rng import RngLike


@dataclass
class PreclusterSummary:
    """What one site sends to the coordinator in round 2, in its local ids.

    Attributes
    ----------
    site_id:
        The contributing site.
    center_points:
        Local indices of the site's centers.
    center_weights:
        Number of local points attached to each center (including the center
        itself).
    outlier_points:
        Local indices of the points shipped individually (the ``t_i``
        unassigned points).  May be empty for protocol variants that do not
        ship outliers (Theorem 3.8).
    """

    site_id: int
    center_points: np.ndarray
    center_weights: np.ndarray
    outlier_points: np.ndarray

    def __post_init__(self) -> None:
        self.center_points = np.asarray(self.center_points, dtype=int)
        self.center_weights = np.asarray(self.center_weights, dtype=float)
        self.outlier_points = np.asarray(self.outlier_points, dtype=int)
        if self.center_points.shape != self.center_weights.shape:
            raise ValueError("center_points and center_weights must align")
        if np.any(self.center_weights < 0):
            raise ValueError("center weights must be non-negative")

    def transmitted_words(self, words_per_point: int) -> float:
        """Words this summary costs on the wire: centers (B each), one weight
        per center, and each shipped outlier point (B each)."""
        n_centers = self.center_points.size
        return float(
            n_centers * words_per_point + n_centers + self.outlier_points.size * words_per_point
        )


@dataclass
class CombineResult:
    """Outcome of the coordinator's weighted clustering step."""

    coordinator_solution: ClusterSolution
    demand_points: np.ndarray
    demand_weights: np.ndarray
    facility_points: np.ndarray
    centers_global: np.ndarray
    explicit_outliers: np.ndarray
    metadata: dict = field(default_factory=dict)


def summarize_local_solution(
    site_id: int, solution: ClusterSolution, *, ship_outliers: bool = True
) -> PreclusterSummary:
    """Package a site-local :class:`ClusterSolution` into a :class:`PreclusterSummary`.

    The summary carries exactly what Algorithm 1 (line 15) transmits, in the
    site's local ids: the local centers, the weight attached to each, and —
    when ``ship_outliers`` is true — the locally unassigned points.
    """
    center_weights_map = solution.center_weights()
    centers = np.asarray(sorted(center_weights_map.keys()), dtype=int)
    weights = np.asarray([center_weights_map[int(c)] for c in centers], dtype=float)
    outliers = solution.outlier_indices if ship_outliers else np.empty(0, dtype=int)
    return PreclusterSummary(
        site_id=site_id,
        center_points=centers,
        center_weights=weights,
        outlier_points=outliers,
    )


def member_groups(
    assignment: np.ndarray,
    centers: Sequence[int],
    cost: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
) -> List[np.ndarray]:
    """The local ids assigned to each center, in the order the output drops them.

    Group ``i`` holds the ids ``j`` with ``assignment[j] == centers[i]``,
    sorted by ``cost(members, centers[i])`` in descending order (a stable
    sort, so ties keep index order); with ``cost=None`` it keeps index
    order.  :func:`realize_output` drops a group's first members first.

    One stable ``argsort`` of ``assignment`` lists every label's ids in
    index order, and ``searchsorted`` cuts it into the groups:
    ``O(n log n)`` in all, not a scan of ``assignment`` per center.
    """
    assignment = np.asarray(assignment)
    order = np.argsort(assignment, kind="stable")
    labels = assignment[order]
    centers = np.asarray(centers)
    starts = np.searchsorted(labels, centers, side="left").tolist()
    stops = np.searchsorted(labels, centers, side="right").tolist()
    groups = []
    for c, start, stop in zip(centers.tolist(), starts, stops):
        members = order[start:stop]
        if cost is not None and members.size > 1:
            members = members[np.argsort(-cost(members, int(c)), kind="stable")]
        groups.append(members)
    return groups


def realize_output(
    shards: Sequence[np.ndarray],
    outputs: Sequence[Tuple[Sequence[np.ndarray], np.ndarray]],
    solution: ClusterSolution,
    facility_points: np.ndarray,
) -> Tuple[Dict[int, int], np.ndarray]:
    """Expand the coordinator's weighted solution into a per-point output.

    ``outputs[i]`` is site ``i``'s ``(groups, shipped)`` pair in its local
    ids, where ``groups`` are its :func:`member_groups` and ``shipped`` its
    individually shipped points, in the order its demands reached the
    coordinator: one demand per group, then one per shipped point.

    A center demand with ``d`` units of weight dropped drops the first
    ``round(d)`` members of its group (the farthest, since groups are in
    drop order; Remark 1 allows dropping fewer copies than the weight), and
    all of them when the demand is unassigned.  A shipped point is an
    outlier exactly when its own demand is unassigned.  Returns
    ``(assignment, outliers)``: a dict from global id to global center, and
    the sorted global outlier ids.  This models the final output step and is
    not charged communication.
    """
    assign = solution.assignment
    targets = np.where(assign >= 0, facility_points[np.maximum(assign, 0)], -1)
    dropped = (
        solution.dropped_weight
        if solution.dropped_weight is not None
        else np.zeros(assign.size)
    )
    keys: List[np.ndarray] = [np.empty(0, dtype=int)]
    values: List[np.ndarray] = [np.empty(0, dtype=int)]
    outliers: List[np.ndarray] = [np.empty(0, dtype=int)]
    idx = 0
    for shard, (groups, shipped) in zip(shards, outputs):
        sizes = np.asarray([len(group) for group in groups], dtype=int)
        members = shard[np.concatenate([np.empty(0, dtype=int), *groups])]
        end = idx + sizes.size
        group_targets = targets[idx:end]
        n_drop = np.where(
            group_targets < 0,
            sizes,
            np.minimum(np.round(dropped[idx:end]).astype(int), sizes),
        )
        # Each member's position in its group: the first n_drop are dropped.
        position = np.arange(members.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        kept = position >= np.repeat(n_drop, sizes)
        ids, own = shard[shipped], targets[end:end + len(shipped)]
        keys += [members[kept], ids[own >= 0]]
        values += [np.repeat(group_targets, sizes)[kept], own[own >= 0]]
        outliers += [members[~kept], ids[own < 0]]
        idx = end + ids.size
    assignment = dict(zip(np.concatenate(keys).tolist(), np.concatenate(values).tolist()))
    return assignment, np.unique(np.concatenate(outliers))


def combine_preclusters(
    instance: DistributedInstance,
    summaries: Sequence[PreclusterSummary],
    *,
    epsilon: float = 0.5,
    relax: str = "outliers",
    rng: RngLike = None,
    coordinator_solver_kwargs: Optional[dict] = None,
    memory_budget: MemoryBudgetLike = None,
    workdir: Optional[str] = None,
) -> CombineResult:
    """Solve the induced weighted problem at the coordinator.

    Parameters
    ----------
    instance:
        The partitioned input being solved.  Its metric (the coordinator evaluates distances only between
        points it has received), its shards (to map each summary's local ids
        to global ones), ``k``, ``t`` and its objective all come from here.
    summaries:
        One :class:`PreclusterSummary` per site, in local ids.  The demands
        keep their arrival order: per summary, the centers, then the shipped
        points.
    epsilon, relax:
        Bicriteria relaxation used for median/means (Theorem 3.1); the center
        objective always uses exactly ``t`` outliers (Algorithm 2).
    memory_budget, workdir:
        Memory discipline for the coordinator's cost matrix (see
        :func:`repro.metrics.cost_matrix.build_cost_matrix`); results are
        bit-identical for every budget.
    """
    obj = validate_objective(instance.objective)
    k, t = instance.k, instance.t
    solver_kwargs = dict(coordinator_solver_kwargs or {})

    points: List[np.ndarray] = [np.empty(0, dtype=int)]
    weights: List[np.ndarray] = [np.empty(0)]
    shipped: List[np.ndarray] = [np.empty(0, dtype=bool)]
    for summary in summaries:
        shard = instance.shards[summary.site_id]
        n_centers, n_shipped = summary.center_points.size, summary.outlier_points.size
        points += [shard[summary.center_points], shard[summary.outlier_points]]
        weights += [summary.center_weights, np.ones(n_shipped)]
        shipped += [np.zeros(n_centers, dtype=bool), np.ones(n_shipped, dtype=bool)]
    demand_points = np.concatenate(points)
    if demand_points.size == 0:
        raise ValueError("no preclustering information received from any site")
    demand_weights = np.concatenate(weights)
    facility_points = np.unique(demand_points)
    cost_matrix = build_cost_matrix(
        instance.metric, demand_points, facility_points, obj,
        memory_budget=memory_budget, workdir=workdir,
    )

    if obj == "center":
        coordinator_solution = kcenter_with_outliers(
            cost_matrix, k, t, weights=demand_weights,
            memory_budget=memory_budget, **solver_kwargs
        )
    else:
        coordinator_solution = bicriteria_solve(
            cost_matrix,
            k,
            t,
            epsilon=epsilon,
            relax=relax,
            objective=obj,
            weights=demand_weights,
            rng=rng,
            memory_budget=memory_budget,
            **solver_kwargs,
        )

    centers_global = facility_points[coordinator_solution.centers]

    # Explicit outliers: unit-weight shipped points fully dropped by the coordinator.
    dropped = (
        coordinator_solution.dropped_weight
        if coordinator_solution.dropped_weight is not None
        else np.zeros(demand_points.size)
    )
    fully_dropped = np.concatenate(shipped) & (dropped >= demand_weights - 1e-9)
    explicit_outliers = np.unique(demand_points[fully_dropped])

    return CombineResult(
        coordinator_solution=coordinator_solution,
        demand_points=demand_points,
        demand_weights=demand_weights,
        facility_points=facility_points,
        centers_global=centers_global,
        explicit_outliers=explicit_outliers,
        metadata={
            "n_demands": int(demand_points.size),
            "n_facilities": int(facility_points.size),
            "coordinator_dropped_weight": float(dropped.sum()),
        },
    )


__all__ = [
    "PreclusterSummary",
    "CombineResult",
    "combine_preclusters",
    "member_groups",
    "realize_output",
    "summarize_local_solution",
]
