"""Combining preclustering solutions at the coordinator (Theorem 2.1 / Corollary 2.2).

Every distributed protocol in this library ends the same way: the coordinator
receives, from each site, a set of weighted *representative points* (the local
centers, weighted by how many points they absorbed) plus a set of unit-weight
points (the local outliers that were shipped explicitly), and solves a
weighted partial clustering problem over their union.  Theorem 2.1 and
Corollary 2.2 of the paper guarantee that a good solution of this induced
weighted problem is a good solution of the original problem.

This module holds the shared machinery:

* :class:`PreclusterSummary` — what one site contributes to the induced problem;
* :func:`combine_preclusters` — build the weighted instance, solve it with the
  requested objective/relaxation, and map the result back to global point ids;
* optional *realization* of a full per-point assignment (used for evaluation
  and for the "output all outliers" claim) from the sites' member lists.  The
  realization models the final output step and is not charged communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.blocked import MemoryBudgetLike
from repro.metrics.cost_matrix import build_cost_matrix, validate_objective
from repro.sequential.bicriteria import bicriteria_solve
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.sequential.solution import ClusterSolution
from repro.utils.rng import RngLike


@dataclass
class PreclusterSummary:
    """What one site sends to the coordinator in round 2.

    Attributes
    ----------
    site_id:
        The contributing site.
    center_points:
        Global indices of the local centers.
    center_weights:
        Number of local points attached to each center (including the center
        itself).
    outlier_points:
        Global indices of the local points shipped individually (the ``t_i``
        unassigned points).  May be empty for protocol variants that do not
        ship outliers (Theorem 3.8).
    members:
        Optional mapping ``center global id -> (member global ids, member
        distances)`` used only to realize a per-point assignment at output
        time; never charged as communication.
    """

    site_id: int
    center_points: np.ndarray
    center_weights: np.ndarray
    outlier_points: np.ndarray
    members: Optional[Dict[int, tuple]] = None

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
    realized_assignment: Dict[int, int]
    realized_outliers: np.ndarray
    metadata: dict = field(default_factory=dict)


def summarize_local_solution(site, solution, *, ship_outliers: bool = True) -> PreclusterSummary:
    """Package a site-local :class:`ClusterSolution` into a :class:`PreclusterSummary`.

    The summary carries exactly what Algorithm 1 (line 15) transmits: the
    local centers as global point ids, the weight attached to each, and — when
    ``ship_outliers`` is true — the locally unassigned points.  Member lists
    (which points sit behind each center, with their local distances) are
    attached for the output-realization step only and are never charged.
    """
    center_weights_map = solution.center_weights()
    centers_local = np.asarray(sorted(center_weights_map.keys()), dtype=int)
    centers_global = site.to_global(centers_local)
    weights = np.asarray([center_weights_map[int(c)] for c in centers_local], dtype=float)
    if ship_outliers and solution.outlier_indices.size:
        outliers_global = site.to_global(solution.outlier_indices)
    else:
        outliers_global = np.empty(0, dtype=int)

    members = {}
    for c_local, c_global in zip(centers_local, centers_global):
        member_local = np.flatnonzero(solution.assignment == c_local)
        if member_local.size == 0:
            members[int(c_global)] = (np.asarray([int(c_global)]), np.asarray([0.0]))
            continue
        dists = site.local_metric.pairwise(member_local, [int(c_local)])[:, 0]
        members[int(c_global)] = (site.to_global(member_local), dists)
    return PreclusterSummary(
        site_id=site.site_id,
        center_points=centers_global,
        center_weights=weights,
        outlier_points=outliers_global,
        members=members,
    )


def _assemble_demands(summaries: Sequence[PreclusterSummary]) -> tuple:
    """Stack all summaries into demand arrays, remembering provenance."""
    points: List[int] = []
    weights: List[float] = []
    provenance: List[tuple] = []  # (site_id, kind, center_global or point_global)
    for summary in summaries:
        for c, w in zip(summary.center_points, summary.center_weights):
            points.append(int(c))
            weights.append(float(w))
            provenance.append((summary.site_id, "center", int(c)))
        for p in summary.outlier_points:
            points.append(int(p))
            weights.append(1.0)
            provenance.append((summary.site_id, "outlier", int(p)))
    return (
        np.asarray(points, dtype=int),
        np.asarray(weights, dtype=float),
        provenance,
    )


def combine_preclusters(
    metric: MetricSpace,
    summaries: Sequence[PreclusterSummary],
    k: int,
    t: float,
    *,
    objective: str = "median",
    epsilon: float = 0.5,
    relax: str = "outliers",
    rng: RngLike = None,
    coordinator_solver_kwargs: Optional[dict] = None,
    memory_budget: MemoryBudgetLike = None,
    workdir: Optional[str] = None,
) -> CombineResult:
    """Solve the induced weighted problem at the coordinator and map back.

    Parameters
    ----------
    metric:
        The global metric (the coordinator may evaluate distances between
        points it has received).
    summaries:
        One :class:`PreclusterSummary` per site.
    k, t:
        Global center and outlier budgets of the *unrelaxed* problem.
    objective:
        ``"median"``, ``"means"`` or ``"center"``.
    epsilon, relax:
        Bicriteria relaxation used for median/means (Theorem 3.1); the center
        objective always uses exactly ``t`` outliers (Algorithm 2).
    memory_budget, workdir:
        Memory discipline for the coordinator's cost matrix (see
        :func:`repro.metrics.cost_matrix.build_cost_matrix`); results are
        bit-identical for every budget.
    """
    obj = validate_objective(objective)
    solver_kwargs = dict(coordinator_solver_kwargs or {})

    demand_points, demand_weights, provenance = _assemble_demands(summaries)
    if demand_points.size == 0:
        raise ValueError("no preclustering information received from any site")
    facility_points = np.unique(demand_points)
    cost_matrix = build_cost_matrix(
        metric, demand_points, facility_points, obj,
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
    explicit = [
        demand_points[idx]
        for idx in range(demand_points.size)
        if provenance[idx][1] == "outlier" and dropped[idx] >= demand_weights[idx] - 1e-9
    ]
    explicit_outliers = np.asarray(sorted(set(int(p) for p in explicit)), dtype=int)

    realized_assignment, realized_outliers = _realize_assignment(
        summaries,
        provenance,
        demand_points,
        dropped,
        coordinator_solution,
        facility_points,
    )

    return CombineResult(
        coordinator_solution=coordinator_solution,
        demand_points=demand_points,
        demand_weights=demand_weights,
        facility_points=facility_points,
        centers_global=centers_global,
        explicit_outliers=explicit_outliers,
        realized_assignment=realized_assignment,
        realized_outliers=realized_outliers,
        metadata={
            "n_demands": int(demand_points.size),
            "n_facilities": int(facility_points.size),
            "coordinator_dropped_weight": float(dropped.sum()),
        },
    )


def _realize_assignment(
    summaries: Sequence[PreclusterSummary],
    provenance: List[tuple],
    demand_points: np.ndarray,
    dropped: np.ndarray,
    coordinator_solution: ClusterSolution,
    facility_points: np.ndarray,
) -> tuple:
    """Expand the coordinator's weighted solution into a per-point assignment.

    Every original point attached to a precluster center inherits that
    center's assignment; when the coordinator dropped ``d`` units of a
    center's weight, the ``d`` attached points farthest from the center are
    designated outliers (Remark 1 allows dropping fewer copies; dropping the
    farthest ones is the natural realization).  Shipped outlier points follow
    their own demand's fate.
    """
    members_by_site: Dict[tuple, tuple] = {}
    for summary in summaries:
        if summary.members:
            for center, info in summary.members.items():
                members_by_site[(summary.site_id, int(center))] = info

    assignment: Dict[int, int] = {}
    outliers: List[int] = []
    assign_arr = coordinator_solution.assignment

    for idx in range(demand_points.size):
        site_id, kind, origin = provenance[idx]
        target = int(facility_points[assign_arr[idx]]) if assign_arr[idx] >= 0 else -1
        if kind == "outlier":
            if target < 0:
                outliers.append(int(origin))
            else:
                assignment[int(origin)] = target
            continue
        # Weighted precluster center: distribute its members.
        info = members_by_site.get((site_id, int(origin)))
        if info is None:
            # No member list available (e.g. no-shipping variant); only the
            # center itself can be realized.
            if target >= 0:
                assignment[int(origin)] = target
            else:
                outliers.append(int(origin))
            continue
        member_ids, member_dists = info
        member_ids = np.asarray(member_ids, dtype=int)
        member_dists = np.asarray(member_dists, dtype=float)
        n_drop = int(round(float(dropped[idx]))) if target >= 0 else member_ids.size
        n_drop = min(n_drop, member_ids.size)
        if n_drop > 0:
            drop_order = np.argsort(-member_dists, kind="stable")[:n_drop]
        else:
            drop_order = np.empty(0, dtype=int)
        drop_set = set(member_ids[drop_order].tolist())
        for pid in member_ids:
            pid = int(pid)
            if pid in drop_set:
                outliers.append(pid)
            else:
                assignment[pid] = target
    return assignment, np.asarray(sorted(set(outliers)), dtype=int)


__all__ = [
    "PreclusterSummary",
    "CombineResult",
    "combine_preclusters",
    "summarize_local_solution",
]
