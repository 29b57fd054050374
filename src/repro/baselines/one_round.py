"""The safe 1-round protocol: every site ships ``t`` potential outliers.

Without the budget-allocation machinery a site cannot know how many of the
``t`` global outliers live in its shard, so the only safe choice is to solve
its local problem with the *full* budget ``t`` and ship all ``t`` unassigned
points (plus its ``2k`` weighted centers).  This is the 1-round row of
Table 2 — ``Õ((sk + st) B)`` communication — and, for the center objective,
the regime of Malkomes et al. [19].  Solution quality is essentially the same
as Algorithm 1's (it is the communication that is ``s`` times larger), which
is exactly the comparison the Table 2 benchmarks report.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.combine import (
    combine_preclusters,
    member_groups,
    realize_output,
    summarize_local_solution,
)
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.distributed.result import DistributedResult
from repro.metrics.cost_matrix import build_cost_matrix, validate_objective
from repro.sequential.gonzalez import gonzalez
from repro.sequential.local_search import local_search_partial
from repro.sequential.assignment import assign_with_outliers
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


def one_round_protocol(
    instance: DistributedInstance,
    *,
    epsilon: float = 0.5,
    local_center_factor: int = 2,
    rng: RngLike = None,
    local_solver_kwargs: Optional[dict] = None,
    coordinator_solver_kwargs: Optional[dict] = None,
) -> DistributedResult:
    """Run the 1-round baseline on a distributed instance (any objective).

    Parameters
    ----------
    instance:
        The partitioned input.
    epsilon:
        Outlier relaxation of the coordinator's final solve (median/means
        only; the center objective uses exactly ``t``).
    local_center_factor:
        Local centers opened per site relative to ``k``.
    """
    objective = validate_objective(instance.objective)
    k, t = instance.k, instance.t
    words_per_point = instance.words_per_point()
    network = StarNetwork(instance)
    generator = ensure_rng(rng)
    site_rngs = spawn_rngs(generator, network.n_sites)
    local_kwargs = dict(local_solver_kwargs or {})

    network.next_round()
    summaries = []
    outputs = []
    for site, site_rng in zip(network.sites, site_rngs):
        with site.timer.measure("local_solve"):
            local_indices = np.arange(site.n_points)
            local_k = min(local_center_factor * k, site.n_points)
            t_local = min(t, max(site.n_points - 1, 0))
            if objective == "center":
                traversal = gonzalez(site.local_metric, m=min(site.n_points, local_k), rng=site_rng)
                local_costs = build_cost_matrix(site.local_metric, local_indices, local_indices, objective)
                solution = assign_with_outliers(
                    local_costs, traversal.ordering, t_local, objective="center"
                )
            else:
                local_costs = build_cost_matrix(site.local_metric, local_indices, local_indices, objective)
                solution = local_search_partial(
                    local_costs, local_k, t_local, objective=objective, rng=site_rng, **local_kwargs
                )
            summary = summarize_local_solution(site.site_id, solution)
            groups = member_groups(
                solution.assignment, summary.center_points,
                lambda members, c: site.local_metric.pairwise(members, [c])[:, 0],
            )
        summaries.append(summary)
        outputs.append((groups, summary.outlier_points))
        network.send_to_coordinator(
            site.site_id,
            "local_solution",
            summary,
            words=summary.transmitted_words(words_per_point),
        )

    with network.coordinator.timer.measure("final_solve"):
        combine = combine_preclusters(
            instance,
            summaries,
            epsilon=epsilon,
            rng=generator,
            coordinator_solver_kwargs=coordinator_solver_kwargs,
        )
    assignment, outliers = realize_output(
        instance.shards, outputs, combine.coordinator_solution, combine.facility_points
    )

    if objective == "center":
        outlier_budget = float(t)
    else:
        outlier_budget = float(math.floor((1.0 + epsilon) * t + 1e-9))

    return DistributedResult(
        centers=combine.centers_global,
        outlier_budget=outlier_budget,
        objective=objective,
        cost=float(combine.coordinator_solution.cost),
        ledger=network.ledger,
        rounds=network.current_round,
        outliers=outliers,
        site_time=network.site_times(),
        coordinator_time=network.coordinator_time(),
        coordinator_solution=combine.coordinator_solution,
        metadata={
            "algorithm": "one_round_baseline",
            "epsilon": float(epsilon),
            "t_shipped_per_site": [int(s.outlier_points.size) for s in summaries],
            "n_coordinator_demands": int(combine.demand_points.size),
            "realized_assignment": assignment,
        },
    )


__all__ = ["one_round_protocol"]
