"""Algorithm 4: distributed uncertain ``(k, t)``-center-g.

The *global* center objective ``E[max_j d(sigma(j), pi(j))]`` does not
decompose per node, so the compressed-graph reduction of Algorithm 3 does not
apply.  Following Guha-Munagala, the algorithm works with the truncated
distance ``L_tau(x, y) = max{d(x, y) - tau, 0}`` and its expectation
``rho_tau(j, u)``: if the optimum of the *median-type* problem under
``rho_tau`` is small compared to ``tau``, then ``tau`` is (up to constants)
an upper bound on the center-g optimum.

The algorithm sweeps a geometric grid of truncation radii
``T = {2^i d_min / 18}``.  For every ``tau`` the sites precluster their nodes
under ``rho_{6 tau}`` (exactly the Algorithm 1 machinery), and the
coordinator picks the smallest ``tau_hat`` whose allocated local costs sum to
at most ``12 tau_hat`` (Lemma 5.10).  The sites then ship their
``tau_hat``-preclusters — local outlier *nodes* travel with their full
distribution (``I`` words each) — and the coordinator finishes with a
weighted ``(k, (1+eps)t)``-center solve.  Total communication
``Õ(s k B + t I + s log Delta)`` over 2 rounds (Theorem 5.14).

The three site-local phases (distance extremes, per-``tau`` preclustering
sweep, ``tau_hat`` summary build) are :class:`repro.runtime.SiteTask`s over
a :class:`~repro.distributed.network.StarNetwork` whose sites hold only
their own nodes, so the protocol runs bit-identically on any
:mod:`repro.runtime` execution backend; the per-``tau`` sweep dominates
local time, so it is also where parallel backends pay off most.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.allocation import allocate_outlier_budget
from repro.core.preclustering import precluster_site
from repro.core.run import protocol_run
from repro.distributed.instance import UncertainDistributedInstance
from repro.distributed.network import StarNetwork
from repro.distributed.result import DistributedResult
from repro.metrics.blocked import DEFAULT_REDUCTION_BUDGET, materialize_rows
from repro.metrics.plan import ReductionPlan
from repro.runtime.tasks import SiteTask, run_site_tasks
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.uncertain.nodes import UncertainNode
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


def truncation_grid(d_min: float, d_max: float, base: float = 2.0, extra_steps: int = 2) -> np.ndarray:
    """The grid ``T = {base^i * d_min / 18 : 0 <= i <= ceil(log_base Delta) + extra}``.

    The largest value exceeds ``d_max / 6``, so ``rho_{6 tau_max}`` vanishes and
    the parametric search of Lemma 5.10 always terminates.
    """
    if d_min <= 0 or d_max < d_min:
        raise ValueError("need 0 < d_min <= d_max")
    if base <= 1:
        raise ValueError(f"base must be > 1, got {base}")
    n_steps = int(math.ceil(math.log(d_max / d_min, base))) + 1 + int(extra_steps)
    return (d_min / 18.0) * base ** np.arange(n_steps + 1)


def _truncated_costs(nodes, support, tau, memory_budget=None, workdir=None):
    """A site's node-by-support ``rho_{6 tau}`` expected-cost matrix.

    Row-blocked build: each node's expected-cost row is computed in one
    call regardless of budget (bit-identical), spilling to a disk shard
    when the matrix exceeds the budget.
    """
    local = np.arange(nodes.n_nodes)
    return materialize_rows(
        lambda rs: nodes.expected_cost_matrix(local[rs], support, tau=6.0 * float(tau)),
        local.size,
        support.size,
        memory_budget=memory_budget,
        workdir=workdir,
    )


def _extremes_task(ctx, memory_budget=None):
    """Site phase of round 1a: local distance extremes (O(1) words per site).

    One *fused* blocked pass: the ``|support|^2`` distance matrix the old
    phrasing materialised never exists — transient memory is one tile of at
    most the memory budget — and both extremes consume every tile of the
    single streaming pass (values are budget-independent either way).
    """
    nodes = ctx.local_metric
    support = nodes.support_union()
    with ctx.timer.measure("extremes"):
        plan = ReductionPlan(
            nodes.ground_metric, support, support,
            memory_budget=memory_budget or DEFAULT_REDUCTION_BUDGET,
        )
        h_min = plan.add_min_positive()
        h_max = plan.add_max()
        plan.execute()
    ctx.send_to_coordinator("extremes", (h_min.value, h_max.value), words=2)


def _tau_sweep_task(
    ctx, taus, k, t, rho, local_center_factor, local_kwargs,
    memory_budget=None, workdir=None,
):
    """Site phase of round 1b: precluster the site's nodes under every truncation radius."""
    nodes = ctx.local_metric
    support = nodes.support_union()
    local_k = min(local_center_factor * k, ctx.n_points)
    preclusters: Dict[float, object] = {}
    with ctx.timer.measure("precluster"):
        for tau in taus:
            costs = _truncated_costs(nodes, support, tau, memory_budget, workdir)
            preclusters[float(tau)] = precluster_site(
                costs, local_k, t, objective="median", rho=rho, rng=ctx.rng,
                **local_kwargs,
            )
    # The per-tau matrices re-derive bit-identically from (nodes, support,
    # tau): round 2 rebuilds the one it uses if the state crossed a
    # transport (SitePreclustering.__getstate__), so none of them does.
    for pre in preclusters.values():
        pre.rebuild_matrix = True
    ctx.state["support"] = support
    ctx.state["preclusters"] = preclusters
    ctx.state["local_k"] = local_k
    profiles = {tau: pre.profile for tau, pre in preclusters.items()}
    ctx.send_to_coordinator(
        "tau_profiles", profiles, words=float(sum(p.words for p in profiles.values()))
    )


def _round2_task(
    ctx, words_per_point, node_words, local_kwargs, memory_budget=None, workdir=None
):
    """Site phase of round 2: ship the ``tau_hat`` precluster (outlier nodes in full).

    Returns what the uncharged output step needs: the member nodes of each
    center demand and the node of each outlier demand.
    """
    allocation = ctx.messages("allocation")[0].payload
    tau_hat, t_i = float(allocation["tau"]), int(allocation["t_i"])
    nodes = ctx.local_metric
    with ctx.timer.measure("round2"):
        precluster = ctx.state["preclusters"][tau_hat]
        support = ctx.state["support"]
        if precluster.cost_matrix is None:
            # The state crossed a transport without its matrices
            # (rebuild_matrix): re-derive the tau_hat one, bit-identically
            # to the round-1b build.
            costs = _truncated_costs(nodes, support, tau_hat, memory_budget, workdir)
            if not isinstance(costs, np.memmap):
                costs = np.asarray(costs, dtype=float)
            precluster.cost_matrix = costs
        t_used = int(round(precluster.profile.snap_up_to_vertex(t_i)))
        t_used = min(t_used, ctx.n_points)
        solution = precluster.solution_for(
            t_used, ctx.state["local_k"], "median", rng=ctx.rng, **local_kwargs
        )
        center_weights = sorted(solution.center_weights().items())
        outliers = [int(j) for j in solution.outlier_indices]
        demands = {
            "anchor": np.asarray([support[c] for c, _ in center_weights], dtype=int),
            "weight": np.asarray(
                [w for _, w in center_weights] + [1.0] * len(outliers), dtype=float
            ),
            "nodes": [nodes.nodes[j] for j in outliers],
        }
        members = [
            ctx.to_global(np.flatnonzero(solution.assignment == c))
            for c, _ in center_weights
        ]
    # A center is its point plus its count; an outlier node is its whole
    # distribution (I words).
    words = float((words_per_point + 1) * len(center_weights) + node_words * len(outliers))
    ctx.send_to_coordinator("local_solution", demands, words=words)
    return {"centers": members, "outliers": ctx.to_global(outliers)}


def distributed_uncertain_center_g(
    instance: UncertainDistributedInstance,
    *,
    epsilon: float = 0.5,
    rho: float = 2.0,
    tau_base: float = 2.0,
    cost_budget_factor: float = 12.0,
    local_center_factor: int = 2,
    rng: RngLike = None,
    local_solver_kwargs: Optional[dict] = None,
    coordinator_solver_kwargs: Optional[dict] = None,
    **options: Any,
) -> DistributedResult:
    """Distributed uncertain ``(k, (1+eps)t)``-center-g (Theorem 5.14).

    Parameters
    ----------
    instance:
        Uncertain input partitioned by node; any declared objective is
        accepted but the result is always a center-g clustering.
    epsilon:
        Outlier relaxation of the coordinator's final center solve.
    rho:
        Budget multiplier / grid ratio of the per-``tau`` preclusterings.
    tau_base:
        Ratio of the geometric truncation grid (``2`` in the paper).
    cost_budget_factor:
        The constant in the stopping rule ``sum_i Csol <= factor * tau``
        (``12`` in Lemma 5.10).
    options:
        Run options, documented once on :func:`repro.core.run.protocol_run`.
        On the cluster backend each site's nodes ship once per run, and its
        per-``tau`` preclusters, with their cost matrices, stay on the
        site's runner between the rounds.
    """
    if epsilon <= 0 or rho <= 1:
        raise ValueError("epsilon must be positive and rho > 1")
    ground = instance.ground_metric
    k, t = instance.k, instance.t
    network = StarNetwork(instance)
    generator = ensure_rng(rng)
    site_rngs = spawn_rngs(generator, network.n_sites)
    coordinator = network.coordinator

    with protocol_run("algorithm4_center_g", "center-g", **options) as run:
        network.tracer = run.trace
        local_kwargs = run.local_kwargs(local_solver_kwargs)
        mem_budget = run.memory_budget
        with run.backend() as backend:
            # --------------------------------------------------------------
            # Round 1a: every party reports its local distance extremes (O(s) words).
            # --------------------------------------------------------------
            network.next_round()
            run_site_tasks(
                network,
                [
                    SiteTask(i, _extremes_task, args=(mem_budget,))
                    for i in range(network.n_sites)
                ],
                backend=backend,
            )
            extremes = [
                coordinator.messages_from(i, "extremes")[0].payload
                for i in range(network.n_sites)
            ]
            d_min = min(lo for lo, _ in extremes if lo > 0)
            d_max = max(hi for _, hi in extremes)
            taus = truncation_grid(d_min, d_max, base=tau_base)

            # --------------------------------------------------------------
            # Round 1b (same round): per-tau compressed preclustering profiles.
            # --------------------------------------------------------------
            sweeps = run_site_tasks(
                network,
                [
                    SiteTask(
                        i,
                        _tau_sweep_task,
                        args=(
                            taus, k, t, rho, local_center_factor, local_kwargs,
                            mem_budget, run.workdir,
                        ),
                        rng=site_rngs[i],
                    )
                    for i in range(network.n_sites)
                ],
                backend=backend,
            )
            site_rngs = [r.rng for r in sweeps]
            tau_profiles = [
                coordinator.messages_from(i, "tau_profiles")[0].payload
                for i in range(network.n_sites)
            ]

            # Coordinator: parametric search for tau_hat (Algorithm 4, line 6).
            with coordinator.timer.measure("tau_search"), run.tracer.span("tau_search"):
                budget = int(math.floor(rho * t))
                tau_hat = float(taus[-1])
                allocation_hat = None
                for tau in taus:
                    profiles = [p[float(tau)] for p in tau_profiles]
                    allocation = allocate_outlier_budget([p.marginals() for p in profiles], budget)
                    total_cost = float(
                        sum(profiles[i](int(allocation.t_allocated[i]))
                            for i in range(network.n_sites))
                    )
                    if total_cost <= cost_budget_factor * float(tau):
                        tau_hat = float(tau)
                        allocation_hat = allocation
                        break
                if allocation_hat is None:
                    profiles = [p[float(taus[-1])] for p in tau_profiles]
                    allocation_hat = allocate_outlier_budget([p.marginals() for p in profiles], budget)

            # --------------------------------------------------------------
            # Round 2: tau_hat + allocations out; preclusters (with full outlier
            # node distributions) back.
            # --------------------------------------------------------------
            network.next_round()
            for site in network.sites:
                network.send_to_site(
                    site.site_id,
                    "allocation",
                    {"tau": tau_hat, "t_i": int(allocation_hat.t_allocated[site.site_id])},
                    words=2,
                )
            round2 = run_site_tasks(
                network,
                [
                    SiteTask(
                        i,
                        _round2_task,
                        args=(
                            instance.words_per_point(), instance.node_words(), local_kwargs,
                            mem_budget, run.workdir,
                        ),
                        rng=site_rngs[i],
                    )
                    for i in range(network.n_sites)
                ],
                backend=backend,
            )
            demands = [
                coordinator.messages_from(i, "local_solution")[0].payload
                for i in range(network.n_sites)
            ]

        # ------------------------------------------------------------------
        # Coordinator: weighted (k, (1+eps)t)-center over what it received.
        # ------------------------------------------------------------------
        with coordinator.timer.measure("final_solve"), run.tracer.span("final_solve"):
            # Demands in arrival order: each site's center anchors (ground
            # points), then its outlier nodes (full distributions).
            demand_rows = [
                demand for d in demands for demand in (*d["anchor"].tolist(), *d["nodes"])
            ]
            facility_points = np.unique(np.concatenate(
                [d["anchor"] for d in demands]
                + [node.support for d in demands for node in d["nodes"]]
            ))
            n_demands = len(demand_rows)

            def _demand_rows(row_slice: slice) -> np.ndarray:
                block = np.empty((row_slice.stop - row_slice.start, facility_points.size))
                for pos, demand in enumerate(demand_rows[row_slice]):
                    if isinstance(demand, UncertainNode):
                        block[pos] = demand.expected_distances(ground, facility_points)
                    else:
                        block[pos] = ground.pairwise([demand], facility_points)[0]
                return block

            # Row-blocked (each demand row is computed in one call regardless of
            # budget, so entries are bit-identical), spilling to a disk shard
            # when the matrix exceeds the budget.
            cost_matrix = materialize_rows(
                _demand_rows, n_demands, facility_points.size,
                memory_budget=mem_budget, workdir=run.workdir,
            )
            weights_arr = np.concatenate([d["weight"] for d in demands])
            outlier_budget = float(math.floor((1.0 + epsilon) * t + 1e-9))
            coordinator_solution = kcenter_with_outliers(
                cost_matrix, k, outlier_budget, weights=weights_arr,
                memory_budget=mem_budget,
                **dict(coordinator_solver_kwargs or {}),
            )
            centers_global = facility_points[coordinator_solution.centers]

        # Output: per-node assignment (uncharged output step).
        node_assignment: Dict[int, int] = {}
        node_outliers: List[int] = []
        dropped = (
            coordinator_solution.dropped_weight
            if coordinator_solution.dropped_weight is not None
            else np.zeros(n_demands)
        )
        targets = [
            int(facility_points[a]) if a >= 0 else -1 for a in coordinator_solution.assignment
        ]
        idx = 0
        for result in round2:
            for members in result.value["centers"]:
                # The center objective never partially drops aggregated
                # weight, so a center demand is either fully served or
                # fully dropped.
                target = targets[idx]
                fully_dropped = target < 0 or dropped[idx] >= weights_arr[idx] - 1e-9
                for node in members:
                    if fully_dropped:
                        node_outliers.append(int(node))
                    else:
                        node_assignment[int(node)] = target
                idx += 1
            for node in result.value["outliers"]:
                target = targets[idx]
                if target < 0:
                    node_outliers.append(int(node))
                else:
                    node_assignment[int(node)] = target
                idx += 1

        return DistributedResult(
            centers=centers_global,
            outlier_budget=outlier_budget,
            objective="center-g",
            cost=float(coordinator_solution.cost),
            ledger=network.ledger,
            rounds=network.current_round,
            outliers=np.asarray(sorted(set(node_outliers)), dtype=int),
            site_time=network.site_times(),
            coordinator_time=network.coordinator_time(),
            coordinator_solution=coordinator_solution,
            trace=run.trace,
            metadata={
                "algorithm": "algorithm4_center_g",
                "epsilon": float(epsilon),
                "rho": float(rho),
                "tau_grid": taus.tolist(),
                "tau_hat": tau_hat,
                "d_min": d_min,
                "d_max": d_max,
                "spread": d_max / d_min if d_min > 0 else float("inf"),
                "t_allocated": allocation_hat.t_allocated.tolist(),
                "node_assignment": node_assignment,
                "n_coordinator_demands": int(n_demands),
                "memory_budget": mem_budget,
            },
        )


__all__ = ["distributed_uncertain_center_g", "truncation_grid"]
