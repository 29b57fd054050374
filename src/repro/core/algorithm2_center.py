"""Algorithm 2: distributed ``(k, t)``-center clustering.

The center objective admits a simpler preclustering (Gonzalez's farthest-first
traversal): the insertion radius of the ``(k+q)``-th traversed point is a
non-increasing witness ``l(i, q)`` of the local ``(k, q)``-center cost, so it
can play the role of Algorithm 1's marginal gains directly.  The rest of the
protocol is the same budget-allocation machinery:

Round 1
    Each site runs Gonzalez on its shard (``Õ((k + t) n_i)`` time) and sends
    its witness curve sampled on the geometric grid (``O(log t)`` words).

Round 2
    The coordinator allocates the outlier budget by rank selection over the
    witnesses, tells every site its ``t_i``, and each site ships its first
    ``k + t_i`` traversal points together with the number of points attached
    to each (total ``Õ((sk + t) B)`` words).  The coordinator finishes with a
    weighted ``(k, t)``-center-with-outliers solve (Charikar et al.) over the
    union, excluding exactly ``t`` units of weight (Theorem 4.3).

Both per-site phases are :class:`repro.runtime.SiteTask`s and run
bit-identically on any :mod:`repro.runtime` execution backend.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.core.allocation import allocate_outlier_budget
from repro.core.combine import (
    PreclusterSummary,
    combine_preclusters,
    member_groups,
    realize_output,
)
from repro.core.preclustering import precluster_site_center
from repro.core.run import protocol_run
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.distributed.result import DistributedResult
from repro.metrics.blocked import argmin_per_row
from repro.runtime.tasks import SiteTask, run_site_tasks
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


def _center_summary(ctx, traversal, k: int, t_i: int, memory_budget=None) -> tuple:
    """Precluster of one site: the first ``k + t_i`` traversal points, weighted.

    Every local point is attached to its nearest candidate (none is ignored —
    Remark 3(i)); the candidates beyond the first ``k`` are the locally most
    isolated points, i.e. the site's outlier suspects, but they travel as
    weighted candidates exactly like the others.

    The nearest-candidate sweep is a blocked per-row argmin
    (:func:`repro.metrics.blocked.argmin_per_row`): the ``n_i x (k + t_i)``
    distance block is never materialised whole under a ``memory_budget``,
    and the attachment is bit-identical for every budget.  Returns the
    summary (in local ids) and the output step's member groups, farthest
    from their candidate first.
    """
    n_local = ctx.n_points
    m = min(n_local, k + t_i)
    candidates = traversal.ordering[:m]
    nearest_dist, nearest = argmin_per_row(
        ctx.local_metric, np.arange(n_local), candidates, memory_budget=memory_budget
    )
    weights = np.zeros(m, dtype=float)
    np.add.at(weights, nearest, 1.0)
    summary = PreclusterSummary(
        site_id=ctx.site_id,
        center_points=candidates,
        center_weights=weights,
        outlier_points=np.empty(0, dtype=int),
    )
    groups = member_groups(nearest, range(m), lambda members, _: nearest_dist[members])
    return summary, groups


def _round1_center_task(ctx, k, t, rho, memory_budget=None):
    """Site phase of round 1: Gonzalez traversal and witness curve."""
    with ctx.timer.measure("precluster"):
        precluster = precluster_site_center(
            ctx.local_metric, k, t, rho=rho, rng=ctx.rng, memory_budget=memory_budget
        )
    ctx.state["precluster"] = precluster
    ctx.send_to_coordinator("witness_curve", precluster, words=precluster.transmitted_words())


def _round2_center_task(ctx, k, words_per_point, memory_budget=None):
    """Site phase of round 2: ship the first ``k + t_i`` traversal points.

    Returns the output step's member groups.
    """
    t_i = int(ctx.messages("allocation")[0].payload["t_i"])
    with ctx.timer.measure("round2"):
        precluster = ctx.state["precluster"]
        summary, groups = _center_summary(ctx, precluster.traversal, k, t_i, memory_budget)
    ctx.send_to_coordinator(
        "local_solution", summary, words=summary.transmitted_words(words_per_point)
    )
    return groups


def distributed_partial_center(
    instance: DistributedInstance,
    *,
    rho: float = 2.0,
    rng: RngLike = None,
    coordinator_solver_kwargs: Optional[dict] = None,
    **options: Any,
) -> DistributedResult:
    """Run Algorithm 2 on a distributed instance with the center objective.

    Parameters
    ----------
    instance:
        The partitioned input; ``instance.objective`` must be ``"center"``.
    rho:
        Budget multiplier for the allocation (the coordinator still excludes
        exactly ``t`` units of weight in its final solve, per Theorem 4.3).
    rng:
        Seed or generator (only the Gonzalez starting points are random).
    coordinator_solver_kwargs:
        Extra keyword arguments for the coordinator's
        :func:`repro.sequential.kcenter_outliers.kcenter_with_outliers`.
    options:
        Run options, documented once on :func:`repro.core.run.protocol_run`.
        On the cluster backend the Gonzalez traversal stays on the site's
        runner between rounds; under a memory budget the traversal sweeps,
        the nearest-candidate attachment and the coordinator's weighted
        solve all run blocked.
    """
    if instance.objective != "center":
        raise ValueError("distributed_partial_center requires a center-objective instance")
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")

    k, t = instance.k, instance.t
    words_per_point = instance.words_per_point()
    network = StarNetwork(instance)
    generator = ensure_rng(rng)
    site_rngs = spawn_rngs(generator, network.n_sites)

    with protocol_run("algorithm2_center", "center", **options) as run:
        network.tracer = run.trace
        with run.backend(network) as backend:
            # --------------------------------------------------------------
            # Round 1: Gonzalez traversals and witness curves.
            # --------------------------------------------------------------
            network.next_round()
            round1 = run_site_tasks(
                network,
                [
                    SiteTask(
                        i, _round1_center_task,
                        args=(k, t, rho, run.memory_budget),
                        rng=site_rngs[i],
                    )
                    for i in range(network.n_sites)
                ],
                backend=backend,
            )
            site_rngs = [r.rng for r in round1]

            with network.coordinator.timer.measure("allocation"), run.tracer.span("allocation"):
                marginals = [
                    network.coordinator.messages_from(i, "witness_curve")[0]
                    .payload.marginals_from_grid(t)
                    for i in range(network.n_sites)
                ]
                budget = int(math.floor(rho * t))
                allocation = allocate_outlier_budget(marginals, budget)

            # --------------------------------------------------------------
            # Round 2: allocations out, weighted candidate sets back, final solve.
            # --------------------------------------------------------------
            network.next_round()
            for site in network.sites:
                t_i = int(allocation.t_allocated[site.site_id])
                network.send_to_site(
                    site.site_id,
                    "allocation",
                    {"t_i": t_i, "threshold": allocation.threshold},
                    words=2,
                )
            round2 = run_site_tasks(
                network,
                [
                    SiteTask(
                        i, _round2_center_task,
                        args=(k, words_per_point, run.memory_budget),
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
                rng=generator,
                coordinator_solver_kwargs=coordinator_solver_kwargs,
                memory_budget=run.memory_budget,
                workdir=run.workdir,
            )
        assignment, outliers = realize_output(
            instance.shards,
            [(r.value, s.outlier_points) for r, s in zip(round2, summaries)],
            combine.coordinator_solution,
            combine.facility_points,
        )

        return DistributedResult(
            centers=combine.centers_global,
            outlier_budget=float(t),
            objective="center",
            cost=float(combine.coordinator_solution.cost),
            ledger=network.ledger,
            rounds=network.current_round,
            outliers=outliers,
            site_time=network.site_times(),
            coordinator_time=network.coordinator_time(),
            coordinator_solution=combine.coordinator_solution,
            trace=run.trace,
            metadata={
                "algorithm": "algorithm2_center",
                "rho": float(rho),
                "t_allocated": allocation.t_allocated.tolist(),
                "threshold": float(allocation.threshold),
                "exceptional_site": allocation.exceptional_site,
                "n_coordinator_demands": int(combine.demand_points.size),
                "realized_assignment": assignment,
                "memory_budget": run.memory_budget,
            },
        )


__all__ = ["distributed_partial_center"]
