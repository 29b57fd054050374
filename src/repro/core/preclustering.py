"""Site-local preclustering (round 1 of Algorithms 1 and 2).

For the median/means objectives each site evaluates its local cost
``Csol(A_i, 2k, q)`` on a geometric grid of outlier counts ``q`` and
summarises the curve by its lower convex hull (a :class:`CostProfile`).  For
the center objective the site runs a single Gonzalez traversal, whose
insertion radii directly provide the non-increasing witnesses ``l(i, q)``
used for the budget allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.convex_hull import CostProfile
from repro.metrics.base import MetricSpace
from repro.sequential.gonzalez import GonzalezResult, center_witnesses, gonzalez
from repro.sequential.local_search import local_search_partial
from repro.sequential.solution import ClusterSolution
from repro.utils.rng import RngLike, ensure_rng


def geometric_grid(t: int, rho: float = 2.0, upper: Optional[int] = None) -> np.ndarray:
    """The grid ``I = {floor(rho^r) : 1 <= r <= floor(log_rho t)} U {0, t}``.

    Parameters
    ----------
    t:
        Global outlier budget.
    rho:
        Geometric ratio (``2`` for Theorem 3.6, ``1 + delta`` for Theorem 3.8).
    upper:
        Optional cap (e.g. a site's ``n_i``): grid values above it are clipped
        to it.

    Returns
    -------
    Sorted unique integer grid values.  ``|I| = O(log_rho t)``.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if rho <= 1.0:
        raise ValueError(f"rho must be > 1, got {rho}")
    values = {0, int(t)}
    r = 1
    while True:
        q = int(np.floor(rho**r))
        if q > t:
            break
        values.add(q)
        r += 1
        if r > 10_000:  # safety net for rho barely above 1
            break
    grid = np.asarray(sorted(values), dtype=int)
    if upper is not None:
        grid = np.unique(np.minimum(grid, int(upper)))
    return grid


@dataclass
class SitePreclustering:
    """Round-1 output of one site for the median/means objectives.

    Attributes
    ----------
    grid:
        Outlier counts ``q`` at which the local problem was actually solved.
    costs:
        ``Csol(A_i, 2k, q)`` for each grid value.
    solutions:
        Cache of the corresponding local solutions, keyed by ``q`` (site-local
        demand/facility indices).
    profile:
        The lower convex hull of ``(grid, costs)`` — what the site transmits.
    cost_matrix:
        The site-local assignment cost matrix, kept so that round 2 can build
        or refine solutions without recomputing distances.
    """

    grid: np.ndarray
    costs: np.ndarray
    solutions: Dict[int, ClusterSolution]
    profile: CostProfile
    cost_matrix: np.ndarray
    weights: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def solution_for(
        self,
        q: int,
        k: int,
        objective: str,
        rng: RngLike = None,
        **solver_kwargs,
    ) -> ClusterSolution:
        """The cached local solution with ``q`` outliers, solving it if missing."""
        q = int(q)
        cached = self.solutions.get(q)
        if cached is not None:
            return cached
        solution = local_search_partial(
            self.cost_matrix,
            k,
            q,
            weights=self.weights,
            objective=objective,
            rng=rng,
            **solver_kwargs,
        )
        self.solutions[q] = solution
        return solution


def precluster_site(
    cost_matrix: np.ndarray,
    k_local: int,
    t: int,
    *,
    objective: str = "median",
    rho: float = 2.0,
    grid: Optional[Sequence[int]] = None,
    weights: Optional[np.ndarray] = None,
    rng: RngLike = None,
    **solver_kwargs,
) -> SitePreclustering:
    """Evaluate the local cost curve of one site on the geometric grid.

    Parameters
    ----------
    cost_matrix:
        Site-local demand-by-facility assignment costs (squared already for
        the means objective).
    k_local:
        Number of local centers (the paper uses ``2k``).
    t:
        Global outlier budget (upper end of the grid).
    objective:
        ``"median"`` or ``"means"``.
    rho:
        Geometric grid ratio.
    grid:
        Explicit grid override (used by tests and by Theorem 3.8's
        ``rho = 1 + delta`` variant).
    weights:
        Optional per-demand weights.
    rng:
        Seed or generator (split across grid points deterministically).
    solver_kwargs:
        Forwarded to :func:`local_search_partial`.
    """
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    n_local = cost_matrix.shape[0]
    generator = ensure_rng(rng)
    if grid is None:
        grid_arr = geometric_grid(t, rho=rho, upper=n_local)
    else:
        grid_arr = np.unique(np.minimum(np.asarray(grid, dtype=int), n_local))

    costs = np.empty(grid_arr.size, dtype=float)
    solutions: Dict[int, ClusterSolution] = {}
    total_weight = float(np.sum(weights)) if weights is not None else float(n_local)
    previous_centers: Optional[np.ndarray] = None

    for pos, q in enumerate(grid_arr):
        q = int(q)
        if q >= total_weight:
            # Everything may be ignored: the local cost is zero.
            solution = ClusterSolution(
                centers=np.empty(0, dtype=int),
                assignment=np.full(n_local, -1, dtype=int),
                outlier_weight=total_weight,
                cost=0.0,
                objective=objective,
                dropped_weight=np.full(n_local, np.nan),
            )
        else:
            solution = local_search_partial(
                cost_matrix,
                k_local,
                q,
                weights=weights,
                objective=objective,
                init_centers=previous_centers,
                rng=generator,
                **solver_kwargs,
            )
            previous_centers = solution.centers
        solutions[q] = solution
        costs[pos] = solution.cost

    # The local cost curve must be non-increasing in q; a heuristic solver may
    # occasionally return a worse solution at a larger q, in which case the
    # solution found at a smaller q (fewer outliers used) is still feasible
    # and cheaper, so reuse it.
    prefix_min = np.minimum.accumulate(costs)
    best_pos = 0
    for pos, q in enumerate(grid_arr):
        if costs[pos] <= prefix_min[pos] + 1e-15:
            best_pos = pos
        else:
            solutions[int(q)] = solutions[int(grid_arr[best_pos])]
    costs = prefix_min

    profile = CostProfile.from_evaluations(grid_arr, costs, t_max=t)
    return SitePreclustering(
        grid=grid_arr,
        costs=costs,
        solutions=solutions,
        profile=profile,
        cost_matrix=cost_matrix,
        weights=None if weights is None else np.asarray(weights, dtype=float),
        metadata={"k_local": int(k_local), "objective": objective},
    )


@dataclass(frozen=True)
class WitnessCurve:
    """What a site sends in round 1 of Algorithm 2: its witnesses on the grid.

    ``values[r]`` is the witness at ``q = grid[r]`` (the ``q = 1`` witness
    for ``q = 0``).  The two arrays are the ``2 * |grid|`` words the message
    is charged, and nothing else crosses the wire.
    """

    grid: np.ndarray
    values: np.ndarray

    @property
    def words(self) -> float:
        """Words charged for the curve: one per grid value and one per witness."""
        return float(2 * self.grid.size)

    def marginals_from_grid(self, t: int) -> np.ndarray:
        """Reconstruct a conservative full-length witness vector from the grid values.

        For ``q`` strictly between two grid points the witness of the *lower*
        grid point is used (an overestimate, since witnesses are
        non-increasing), which can only allocate more budget to the site —
        never less.  The result is non-increasing, as the allocation requires.
        """
        if t == 0:
            return np.empty(0, dtype=float)
        below = np.searchsorted(self.grid, np.arange(1, t + 1), side="right") - 1
        return np.minimum.accumulate(self.values[np.maximum(below, 0)])


@dataclass
class CenterPreclustering:
    """Round-1 output of one site for the center objective (Algorithm 2).

    Attributes
    ----------
    traversal:
        The Gonzalez traversal of the site's points (local indices).
    witnesses:
        ``l(i, q)`` for ``q = 1..t`` — the insertion radius of the
        ``(k+q)``-th traversed point (0 beyond the site's size).
    grid:
        Grid of ``q`` values at which the witnesses are transmitted.
    """

    traversal: GonzalezResult
    witnesses: np.ndarray
    grid: np.ndarray
    k: int
    metadata: dict = field(default_factory=dict)

    def witnesses_on_grid(self) -> np.ndarray:
        """Witness values at the grid points (``q = 0`` maps to the ``q = 1`` witness)."""
        if self.witnesses.size == 0:
            return np.zeros(self.grid.size, dtype=float)
        idx = np.clip(self.grid - 1, 0, self.witnesses.size - 1)
        return np.where(self.grid == 0, self.witnesses[0], self.witnesses[idx])

    @property
    def curve(self) -> WitnessCurve:
        """The round-1 message: the grid and the witnesses on it."""
        return WitnessCurve(self.grid, self.witnesses_on_grid())


def precluster_site_center(
    local_metric: MetricSpace,
    k: int,
    t: int,
    *,
    rho: float = 2.0,
    grid: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> CenterPreclustering:
    """Gonzalez traversal + witness extraction for one site (Algorithm 2, lines 1-5).

    The traversal streams one ``O(n_local)`` sweep at a time (see
    :func:`repro.sequential.gonzalez.gonzalez`), so it takes no memory
    budget.
    """
    n_local = len(local_metric)
    m = min(n_local, k + t + 1)
    traversal = gonzalez(local_metric, m=m, rng=rng)
    witnesses = center_witnesses(traversal, k, t)
    if grid is None:
        grid_arr = geometric_grid(t, rho=rho)
    else:
        grid_arr = np.unique(np.asarray(grid, dtype=int))
    return CenterPreclustering(
        traversal=traversal,
        witnesses=witnesses,
        grid=grid_arr,
        k=int(k),
        metadata={"n_local": int(n_local)},
    )


__all__ = [
    "geometric_grid",
    "SitePreclustering",
    "precluster_site",
    "WitnessCurve",
    "CenterPreclustering",
    "precluster_site_center",
]
