"""Theorem 3.8: the no-outlier-shipping variant of Algorithm 1.

When only the clustering (and the *number* of ignored points) is needed —
not the identity of every outlier — the ``Õ(t)`` term in the communication
can be removed entirely:

* the geometric grid uses ratio ``rho = 1 + delta`` (so ``|I| = Õ(1/delta)``),
* in round 2 a site sends only its ``2k`` centers, the attached counts and
  the *number* ``t_i`` of locally ignored points — never the points themselves,
* the exceptional site ``i_0``, whose allocation ``t_{i_0}`` may fall strictly
  between two hull vertices ``t_{i,1} < t_{i,2}``, combines the two cached
  solutions into a single ``4k``-center solution whose cost is at most the
  interpolated hull value (Lemma 3.7), and ships that.

Total communication ``Õ(s/delta + s k B)`` over 2 rounds; the output excludes
at most ``(2 + epsilon + delta) t`` points (the ignored points of the
preclustering are gone for good, hence the extra ``+1``).

Per-site phases run as :class:`repro.runtime.SiteTask`s on any execution
backend; round 1 is shared with Algorithm 1 (the grid ratio is the only
difference).
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.core.algorithm1 import _round1_task
from repro.core.allocation import allocate_outlier_budget
from repro.core.combine import combine_preclusters, summarize_local_solution
from repro.core.run import protocol_run
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.distributed.result import DistributedResult
from repro.metrics.cost_matrix import validate_objective
from repro.runtime.tasks import SiteTask, run_site_tasks
from repro.sequential.assignment import assign_with_outliers
from repro.sequential.solution import ClusterSolution
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


def combine_two_solutions(
    cost_matrix: np.ndarray,
    solution_low: ClusterSolution,
    solution_high: ClusterSolution,
    t_i: int,
    objective: str,
) -> ClusterSolution:
    """Lemma 3.7: merge the solutions at the two bracketing hull vertices.

    The union of their centers (at most ``4k``) is used, every demand is
    attached to its nearest center in the union, and the ``t_i`` most
    expensive demands are ignored.  Lemma 3.7 shows the resulting cost is at
    most the convex interpolation of the two endpoint costs.
    """
    centers = np.unique(
        np.concatenate([solution_low.centers, solution_high.centers])
    )
    if centers.size == 0:
        centers = np.asarray([0], dtype=int)
    return assign_with_outliers(cost_matrix, centers, t_i, objective=objective)


def _round2_no_shipping_task(ctx, objective, words_per_point, local_kwargs):
    """Site phase of round 2: centers and counts only, never the outliers.

    Returns ``(t_i, combined_4k)``.
    """
    message = ctx.messages("allocation")[0].payload
    t_i = int(message["t_i"])
    is_exceptional = bool(message["exceptional"])
    with ctx.timer.measure("round2"):
        precluster = ctx.state["precluster"]
        profile = precluster.profile
        local_k = ctx.state["local_k"]
        if is_exceptional and not profile.is_vertex(t_i):
            # Lemma 3.7 combination of the bracketing hull-vertex solutions.
            t_low, t_high = profile.bracketing_vertices(t_i)
            sol_low = precluster.solution_for(int(t_low), local_k, objective, rng=ctx.rng, **local_kwargs)
            sol_high = precluster.solution_for(int(t_high), local_k, objective, rng=ctx.rng, **local_kwargs)
            solution = combine_two_solutions(
                precluster.cost_matrix, sol_low, sol_high, t_i, objective
            )
            combined_4k = True
        else:
            t_vertex = int(round(profile.snap_down_to_vertex(t_i)))
            solution = precluster.solution_for(t_vertex, local_k, objective, rng=ctx.rng, **local_kwargs)
            combined_4k = False
        summary = summarize_local_solution(ctx.site_id, solution, ship_outliers=False)
    # Centers (B words each), counts (1 word each) and the scalar t_i.
    ctx.send_to_coordinator(
        "local_solution", summary, words=summary.transmitted_words(words_per_point) + 1
    )
    return t_i, combined_4k


def distributed_partial_median_no_shipping(
    instance: DistributedInstance,
    *,
    epsilon: float = 0.5,
    delta: float = 0.5,
    local_center_factor: int = 2,
    rng: RngLike = None,
    local_solver_kwargs: Optional[dict] = None,
    coordinator_solver_kwargs: Optional[dict] = None,
    **options: Any,
) -> DistributedResult:
    """Run the Theorem 3.8 variant (no outlier points are ever transmitted).

    Parameters
    ----------
    instance:
        The partitioned input (median or means objective).
    epsilon:
        Relaxation of the coordinator's final bicriteria solve.
    delta:
        Grid ratio parameter (``rho = 1 + delta``); smaller ``delta`` means a
        finer grid (more local solves, more profile words) but a smaller
        excess outlier budget.
    options:
        Run options, documented once on :func:`repro.core.run.protocol_run`.
        As in Algorithm 1, the precluster stays runner-resident between
        rounds on the cluster backend, so the wire ledger reflects this
        variant's small communication.
    """
    objective = validate_objective(instance.objective)
    if objective == "center":
        raise ValueError("the no-shipping variant targets median/means")
    if epsilon <= 0 or delta <= 0:
        raise ValueError("epsilon and delta must be positive")

    k, t = instance.k, instance.t
    words_per_point = instance.words_per_point()
    rho = 1.0 + delta
    network = StarNetwork(instance)
    generator = ensure_rng(rng)
    site_rngs = spawn_rngs(generator, network.n_sites)

    with protocol_run("algorithm1_no_shipping", objective, **options) as run:
        network.tracer = run.trace
        local_kwargs = run.local_kwargs(local_solver_kwargs)
        with run.backend(network) as backend:
            # Round 1: profiles on the finer grid.
            network.next_round()
            round1 = run_site_tasks(
                network,
                [
                    SiteTask(
                        i,
                        _round1_task,
                        args=(
                            k, t, objective, rho, local_center_factor, local_kwargs,
                            run.memory_budget, run.workdir,
                        ),
                        rng=site_rngs[i],
                    )
                    for i in range(network.n_sites)
                ],
                backend=backend,
            )
            site_rngs = [r.rng for r in round1]

            with network.coordinator.timer.measure("allocation"), run.tracer.span("allocation"):
                marginals = [
                    network.coordinator.messages_from(i, "cost_profile")[0].payload.marginals()
                    for i in range(network.n_sites)
                ]
                budget = int(math.floor(rho * t))
                allocation = allocate_outlier_budget(marginals, budget)

            # Round 2: centers and counts only.
            network.next_round()
            for site in network.sites:
                t_i = int(allocation.t_allocated[site.site_id])
                is_exceptional = allocation.exceptional_site == site.site_id
                network.send_to_site(
                    site.site_id,
                    "allocation",
                    {"t_i": t_i, "threshold": allocation.threshold, "exceptional": is_exceptional},
                    words=3,
                )
            round2 = run_site_tasks(
                network,
                [
                    SiteTask(
                        i,
                        _round2_no_shipping_task,
                        args=(objective, words_per_point, local_kwargs),
                        rng=site_rngs[i],
                    )
                    for i in range(network.n_sites)
                ],
                backend=backend,
            )
            summaries = [
                network.coordinator.messages_from(i, "local_solution")[0].payload
                for i in range(network.n_sites)
            ]

        with network.coordinator.timer.measure("final_solve"), run.tracer.span("final_solve"):
            combine = combine_preclusters(
                instance,
                summaries,
                epsilon=epsilon,
                rng=generator,
                coordinator_solver_kwargs=coordinator_solver_kwargs,
                memory_budget=run.memory_budget,
                workdir=run.workdir,
            )

        total_preclustering_ignored = int(sum(r.value[0] for r in round2))
        outlier_budget = math.floor((2.0 + epsilon + delta) * t + 1e-9)
        return DistributedResult(
            centers=combine.centers_global,
            outlier_budget=float(outlier_budget),
            objective=objective,
            cost=float(combine.coordinator_solution.cost),
            ledger=network.ledger,
            rounds=network.current_round,
            outliers=None,  # the defining property of this variant: outliers are not named
            site_time=network.site_times(),
            coordinator_time=network.coordinator_time(),
            coordinator_solution=combine.coordinator_solution,
            trace=run.trace,
            metadata={
                "algorithm": "algorithm1_no_shipping",
                "epsilon": float(epsilon),
                "delta": float(delta),
                "rho": float(rho),
                "t_allocated": allocation.t_allocated.tolist(),
                "preclustering_ignored": total_preclustering_ignored,
                "coordinator_dropped_weight": combine.metadata["coordinator_dropped_weight"],
                "exceptional_site": allocation.exceptional_site,
                "exceptional_combined_4k": [bool(r.value[1]) for r in round2],
                "n_coordinator_demands": int(combine.demand_points.size),
                "memory_budget": run.memory_budget,
                "cost_matrix_storage": [r.value[1] for r in round1],
            },
        )


__all__ = ["distributed_partial_median_no_shipping", "combine_two_solutions"]
