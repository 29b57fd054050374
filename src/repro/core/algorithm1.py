"""Algorithm 1: distributed ``(k, (1+eps)t)``-median / means clustering.

Two rounds, ``Õ((sk + t) B)`` words of communication (Theorem 3.6):

Round 1 (sites -> coordinator)
    Every site solves its local problem with ``2k`` centers at the
    ``O(log t)`` grid points ``q in I`` and transmits the lower convex hull of
    the resulting cost curve (:class:`repro.core.convex_hull.CostProfile`).

Allocation (coordinator)
    The coordinator splits a budget of ``rho * t`` ignored points across the
    sites by stable rank selection on the marginal gains ``l(i, q)``
    (:func:`repro.core.allocation.allocate_outlier_budget`).

Round 2 (coordinator -> sites -> coordinator)
    Each site learns its allocation ``t_i`` (snapping up to a hull vertex when
    it is the exceptional site), and ships its ``2k`` local centers, the
    number of points attached to each, and its ``t_i`` unassigned points.
    The coordinator solves the induced weighted ``(k, (1+eps)t)`` problem
    (Theorem 3.1 interface) over everything it received and outputs the
    centers, which are original input points.

Both per-site phases are expressed as :class:`repro.runtime.SiteTask`s, so
the whole protocol runs unchanged — and bit-identically — on any
:mod:`repro.runtime` execution backend.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.core.allocation import allocate_outlier_budget
from repro.core.combine import (
    combine_preclusters,
    member_groups,
    realize_output,
    summarize_local_solution,
)
from repro.core.preclustering import precluster_site
from repro.core.run import protocol_run
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.distributed.result import DistributedResult
from repro.metrics.cost_matrix import build_cost_matrix, validate_objective
from repro.runtime.tasks import SiteTask, run_site_tasks
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


def _round1_task(
    ctx, k, t, objective, rho, local_center_factor, local_kwargs,
    memory_budget=None, workdir=None,
):
    """Site phase of round 1: solve the local grid and ship the cost profile.

    Under a ``memory_budget`` the site's ``n_i x n_i`` cost matrix is built in
    row blocks and — when larger than the budget — streamed from a disk shard
    under ``workdir`` instead of RAM (bit-identical costs either way).
    Returns ``(local_k, cost_storage)`` for the result metadata.
    """
    with ctx.timer.measure("precluster"):
        local_indices = np.arange(ctx.n_points)
        local_costs = build_cost_matrix(
            ctx.local_metric, local_indices, local_indices, objective,
            memory_budget=memory_budget, workdir=workdir,
        )
        local_k = min(local_center_factor * k, ctx.n_points)
        precluster = precluster_site(
            local_costs,
            local_k,
            t,
            objective=objective,
            rho=rho,
            rng=ctx.rng,
            **local_kwargs,
        )
    ctx.state["precluster"] = precluster
    ctx.state["local_k"] = local_k
    ctx.send_to_coordinator("cost_profile", precluster.profile, words=precluster.profile.words)
    return local_k, "memmap" if isinstance(local_costs, np.memmap) else "dense"


def _round2_task(ctx, objective, words_per_point, local_kwargs):
    """Site phase of round 2: snap the allocation and ship the local solution.

    Returns ``(t_used, groups)``: the solved grid value the allocation
    snapped to, and the uncharged output step's member groups, each in drop
    order (farthest from its center first).
    """
    t_i = int(ctx.messages("allocation")[0].payload["t_i"])
    with ctx.timer.measure("round2"):
        precluster = ctx.state["precluster"]
        profile = precluster.profile
        # The exceptional site's allocation may fall inside a hull segment
        # (an interpolated value); snap up to the next actually solved grid
        # point (Algorithm 1, line 13).  Other sites' allocations are hull
        # vertices by Lemma 3.4, but snapping is a no-op there and guards
        # against floating-point ties.
        t_used = int(round(profile.snap_up_to_vertex(t_i)))
        t_used = min(t_used, ctx.n_points)
        solution = precluster.solution_for(
            t_used, ctx.state["local_k"], objective, rng=ctx.rng, **local_kwargs
        )
        summary = summarize_local_solution(ctx.site_id, solution)
        groups = member_groups(
            solution.assignment, summary.center_points,
            lambda members, c: ctx.local_metric.pairwise(members, [c])[:, 0],
        )
    ctx.send_to_coordinator(
        "local_solution", summary, words=summary.transmitted_words(words_per_point)
    )
    return t_used, groups


def distributed_partial_median(
    instance: DistributedInstance,
    *,
    epsilon: float = 0.5,
    rho: float = 2.0,
    relax: str = "outliers",
    local_center_factor: int = 2,
    rng: RngLike = None,
    local_solver_kwargs: Optional[dict] = None,
    coordinator_solver_kwargs: Optional[dict] = None,
    **options: Any,
) -> DistributedResult:
    """Run Algorithm 1 on a distributed instance.

    Parameters
    ----------
    instance:
        The partitioned input; ``instance.objective`` must be ``"median"`` or
        ``"means"``.
    epsilon:
        Bicriteria relaxation of the final coordinator solve (Theorem 3.1);
        the cost guarantee is ``O(1 + 1/epsilon)`` times the ``(k, t)``
        optimum either way.
    rho:
        Geometric grid ratio and allocation budget multiplier (``2`` in
        Theorem 3.6).
    relax:
        Which budget the coordinator relaxes: ``"outliers"`` (default —
        ``k`` centers, ``(1 + epsilon) t`` ignored points, the Table 1 rows)
        or ``"centers"`` (``(1 + epsilon) k`` centers, exactly ``t`` ignored
        points — the ``(1+eps)k`` rows of Table 2).
    local_center_factor:
        How many centers the sites open locally relative to ``k`` (the paper
        uses ``2k``).
    rng:
        Seed or generator; split deterministically across sites.
    local_solver_kwargs, coordinator_solver_kwargs:
        Extra keyword arguments for the site-local and coordinator solvers.
    options:
        Run options, documented once on :func:`repro.core.run.protocol_run`.
        On the cluster backend each site's precluster, with its cached
        ``n_i x n_i`` cost matrix, stays on the site's runner between the
        two rounds.
    """
    objective = validate_objective(instance.objective)
    if objective == "center":
        raise ValueError("Algorithm 1 handles median/means; use distributed_partial_center")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if rho <= 1:
        raise ValueError(f"rho must be > 1, got {rho}")
    relax = str(relax).lower()
    if relax not in ("outliers", "centers"):
        raise ValueError(f"relax must be 'outliers' or 'centers', got {relax!r}")

    k, t = instance.k, instance.t
    words_per_point = instance.words_per_point()
    network = StarNetwork(instance)
    generator = ensure_rng(rng)
    site_rngs = spawn_rngs(generator, network.n_sites)
    coord_rng = ensure_rng(generator)

    with protocol_run("algorithm1", objective, **options) as run:
        network.tracer = run.trace
        local_kwargs = run.local_kwargs(local_solver_kwargs)
        with run.backend(network) as backend:
            # --------------------------------------------------------------
            # Round 1: local cost profiles.
            # --------------------------------------------------------------
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

            # Coordinator: allocate the outlier budget.
            with network.coordinator.timer.measure("allocation"), run.tracer.span("allocation"):
                marginals = [
                    network.coordinator.messages_from(i, "cost_profile")[0].payload.marginals()
                    for i in range(network.n_sites)
                ]
                budget = int(math.floor(rho * t))
                allocation = allocate_outlier_budget(marginals, budget)

            # --------------------------------------------------------------
            # Round 2: allocations out, local solutions back, final solve.
            # --------------------------------------------------------------
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
                        _round2_task,
                        args=(objective, words_per_point, local_kwargs),
                        rng=site_rngs[i],
                    )
                    for i in range(network.n_sites)
                ],
                backend=backend,
            )
            # Combine what the coordinator received (on the cluster backend,
            # what actually crossed the wire), not the task return values.
            summaries = [
                network.coordinator.messages_from(i, "local_solution")[0].payload
                for i in range(network.n_sites)
            ]

        with network.coordinator.timer.measure("final_solve"), run.tracer.span("final_solve"):
            combine = combine_preclusters(
                instance,
                summaries,
                epsilon=epsilon,
                relax=relax,
                rng=coord_rng,
                coordinator_solver_kwargs=coordinator_solver_kwargs,
                memory_budget=run.memory_budget,
                workdir=run.workdir,
            )
        assignment, outliers = realize_output(
            instance.shards,
            [(r.value[1], s.outlier_points) for r, s in zip(round2, summaries)],
            combine.coordinator_solution,
            combine.facility_points,
        )

        if relax == "outliers":
            outlier_budget = math.floor((1.0 + epsilon) * t + 1e-9)
        else:
            outlier_budget = float(t)
        return DistributedResult(
            centers=combine.centers_global,
            outlier_budget=float(outlier_budget),
            objective=objective,
            cost=float(combine.coordinator_solution.cost),
            ledger=network.ledger,
            rounds=network.current_round,
            outliers=outliers,
            site_time=network.site_times(),
            coordinator_time=network.coordinator_time(),
            coordinator_solution=combine.coordinator_solution,
            trace=run.trace,
            metadata={
                "algorithm": "algorithm1",
                "epsilon": float(epsilon),
                "rho": float(rho),
                "relax": relax,
                "t_allocated": allocation.t_allocated.tolist(),
                "t_used": [int(r.value[0]) for r in round2],
                "threshold": float(allocation.threshold),
                "exceptional_site": allocation.exceptional_site,
                "n_coordinator_demands": int(combine.demand_points.size),
                "realized_assignment": assignment,
                "explicit_outliers": combine.explicit_outliers,
                "local_k": [int(r.value[0]) for r in round1],
                "memory_budget": run.memory_budget,
                "cost_matrix_storage": [r.value[1] for r in round1],
            },
        )


__all__ = ["distributed_partial_median"]
