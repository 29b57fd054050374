"""The naive send-everything protocol.

Every site transmits its entire shard (``n_i * B`` words) and the coordinator
solves the problem on the full data exactly as a single machine would.  It is
the quality gold standard among the distributed runs (it sees everything) and
the communication worst case (``n B`` words, independent of ``k`` and ``t``),
so it anchors both axes of every comparison plot.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.distributed.result import DistributedResult
from repro.metrics.cost_matrix import build_cost_matrix, validate_objective
from repro.sequential.bicriteria import bicriteria_solve
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.utils.rng import RngLike, ensure_rng


def send_all_protocol(
    instance: DistributedInstance,
    *,
    epsilon: float = 0.5,
    rng: RngLike = None,
    coordinator_solver_kwargs: Optional[dict] = None,
) -> DistributedResult:
    """Ship every point to the coordinator and solve centrally (1 round)."""
    objective = validate_objective(instance.objective)
    k, t = instance.k, instance.t
    metric = instance.metric
    words_per_point = instance.words_per_point()
    network = StarNetwork(instance)
    generator = ensure_rng(rng)
    solver_kwargs = dict(coordinator_solver_kwargs or {})

    network.next_round()
    for site in network.sites:
        # A site names its points by local id; the coordinator maps them.
        network.send_to_coordinator(
            site.site_id,
            "all_points",
            np.arange(site.n_points),
            words=float(site.n_points * words_per_point),
        )

    all_points = np.concatenate(
        [instance.shards[m.sender][m.payload] for m in network.coordinator.inbox]
    )
    with network.coordinator.timer.measure("final_solve"):
        cost_matrix = build_cost_matrix(metric, all_points, all_points, objective)
        if objective == "center":
            solution = kcenter_with_outliers(cost_matrix, k, t, **solver_kwargs)
            outlier_budget = float(t)
        else:
            solution = bicriteria_solve(
                cost_matrix, k, t, epsilon=epsilon, relax="outliers",
                objective=objective, rng=generator, **solver_kwargs,
            )
            outlier_budget = float(math.floor((1.0 + epsilon) * t + 1e-9))

    centers_global = all_points[solution.centers]
    outliers_global = all_points[solution.outlier_indices]

    return DistributedResult(
        centers=centers_global,
        outlier_budget=outlier_budget,
        objective=objective,
        cost=float(solution.cost),
        ledger=network.ledger,
        rounds=network.current_round,
        outliers=np.sort(outliers_global),
        site_time=network.site_times(),
        coordinator_time=network.coordinator_time(),
        coordinator_solution=solution,
        metadata={
            "algorithm": "send_all_baseline",
            "epsilon": float(epsilon),
        },
    )


__all__ = ["send_all_protocol"]
