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
sweep, ``tau_hat`` summary build) run through
:func:`repro.runtime.run_tasks` and fan out to any execution backend; the
per-``tau`` sweep dominates local time, so it is also where parallel
backends pay off most.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.allocation import allocate_outlier_budget
from repro.core.preclustering import precluster_site
from repro.core.run import protocol_run
from repro.distributed.instance import UncertainDistributedInstance
from repro.distributed.messages import COORDINATOR, CommunicationLedger, Message
from repro.distributed.result import DistributedResult
from repro.metrics.blocked import DEFAULT_REDUCTION_BUDGET, materialize_rows
from repro.metrics.plan import ReductionPlan
from repro.runtime.tasks import run_tasks
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.utils.timing import Timer


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


def _extremes_task(payload: dict) -> dict:
    """Site phase of round 1a: local distance extremes (O(1) words per site).

    One *fused* blocked pass: the ``|support|^2`` distance matrix the old
    phrasing materialised never exists — transient memory is one tile of at
    most the memory budget — and both extremes consume every tile of the
    single streaming pass (values are budget-independent either way).
    """
    uncertain = payload["uncertain"]
    shard = payload["shard"]
    budget = payload.get("memory_budget") or DEFAULT_REDUCTION_BUDGET
    timer = Timer()
    support = uncertain.support_union(shard)
    with timer.measure("extremes"):
        plan = ReductionPlan(
            uncertain.ground_metric, support, support, memory_budget=budget
        )
        h_min = plan.add_min_positive()
        h_max = plan.add_max()
        plan.execute()
        d_min_i, d_max_i = h_min.value, h_max.value
    return {"timer": timer, "extremes": (d_min_i, d_max_i)}


def _tau_sweep_task(payload: dict) -> dict:
    """Site phase of round 1b: precluster the shard under every truncation radius."""
    uncertain = payload["uncertain"]
    shard = payload["shard"]
    taus = payload["taus"]
    rng = payload["rng"]
    timer = Timer()
    support = uncertain.support_union(shard)
    preclusters: Dict[float, object] = {}
    mem_budget = payload.get("memory_budget")
    workdir = payload.get("workdir")
    with timer.measure("precluster"):
        for tau in taus:
            # Row-blocked build: each node's expected-cost row is computed in
            # one call regardless of budget (bit-identical), spilling to a
            # disk shard when the matrix exceeds the budget.
            tau_scaled = 6.0 * float(tau)
            costs = materialize_rows(
                lambda rs: uncertain.expected_cost_matrix(
                    shard[rs], support, tau=tau_scaled
                ),
                shard.size,
                support.size,
                memory_budget=mem_budget,
                workdir=workdir,
            )
            local_k = min(payload["local_center_factor"] * payload["k"], shard.size)
            preclusters[float(tau)] = precluster_site(
                costs, local_k, payload["t"], objective="median", rho=payload["rho"],
                rng=rng, **payload["local_kwargs"],
            )
    # The per-tau collapse matrices re-derive bit-identically from
    # (uncertain, shard, tau): round 2 rebuilds the one it actually uses,
    # so none of them crosses a transport (SitePreclustering.__getstate__).
    # In-process backends never pickle the state and keep the matrices.
    for pre in preclusters.values():
        pre.rebuild_matrix = True
    words = float(sum(p.profile.words for p in preclusters.values()))
    return {
        "state": {"shard": shard, "support": support, "preclusters": preclusters, "local_k": local_k},
        "timer": timer,
        "rng": rng,
        "words": words,
        "profiles": {float(tau): p.profile for tau, p in preclusters.items()},
    }


def _center_g_round2(payload: dict) -> dict:
    """Site phase of round 2: ship the ``tau_hat`` precluster (outlier nodes in full)."""
    uncertain = payload["uncertain"]
    state = payload["state"]
    tau_hat = payload["tau_hat"]
    t_i = payload["t_i"]
    B = payload["B"]
    node_words = payload["node_words"]
    rng = payload["rng"]
    site_id = payload["site_id"]
    timer = Timer()
    demand_anchor: List[int] = []
    demand_node: List[Optional[int]] = []
    demand_weight: List[float] = []
    demand_origin: List[tuple] = []
    facility_candidates: List[np.ndarray] = []
    with timer.measure("round2"):
        precluster = state["preclusters"][tau_hat]
        if precluster.cost_matrix is None:
            # The sweep dropped the matrix in transit (rebuild_matrix):
            # re-derive the tau_hat collapse matrix from the resident
            # inputs, bit-identically to the round-1b build.
            shard = state["shard"]
            support = state["support"]
            costs = materialize_rows(
                lambda rs: uncertain.expected_cost_matrix(
                    shard[rs], support, tau=6.0 * float(tau_hat)
                ),
                shard.size,
                support.size,
                memory_budget=payload.get("memory_budget"),
                workdir=payload.get("workdir"),
            )
            if not isinstance(costs, np.memmap):
                costs = np.asarray(costs, dtype=float)
            precluster.cost_matrix = costs
        t_used = int(round(precluster.profile.snap_up_to_vertex(t_i)))
        t_used = min(t_used, state["shard"].size)
        solution = precluster.solution_for(
            t_used, state["local_k"], "median", rng=rng, **payload["local_kwargs"]
        )
        state["t_i"] = t_used
        state["solution"] = solution
        words = 0.0
        center_weights = solution.center_weights()
        support = state["support"]
        for c_local, weight in sorted(center_weights.items()):
            point = int(support[int(c_local)])
            demand_anchor.append(point)
            demand_node.append(None)
            demand_weight.append(float(weight))
            demand_origin.append((site_id, "center", int(c_local)))
            facility_candidates.append(np.asarray([point]))
            words += B + 1
        for j_local in solution.outlier_indices:
            node_global = int(state["shard"][int(j_local)])
            node = uncertain.nodes[node_global]
            demand_anchor.append(-1)
            demand_node.append(node_global)
            demand_weight.append(1.0)
            demand_origin.append((site_id, "outlier", int(j_local)))
            facility_candidates.append(node.support)
            words += node_words
    return {
        "state": state,
        "timer": timer,
        "rng": rng,
        "words": words,
        "demand_anchor": demand_anchor,
        "demand_node": demand_node,
        "demand_weight": demand_weight,
        "demand_origin": demand_origin,
        "facility_candidates": facility_candidates,
    }


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
        On the cluster backend the components each per-``tau`` round repeats
        (shards, collapse matrices, round-1 state) ship once as
        content-addressed digests (:mod:`repro.cluster.payloads`).
    """
    if epsilon <= 0 or rho <= 1:
        raise ValueError("epsilon must be positive and rho > 1")
    uncertain = instance.uncertain
    ground = uncertain.ground_metric
    k, t = instance.k, instance.t
    B = instance.words_per_point()
    s = instance.n_sites
    generator = ensure_rng(rng)
    site_rngs = spawn_rngs(generator, s)
    ledger = CommunicationLedger()
    site_timers = [Timer() for _ in range(s)]
    coord_timer = Timer()

    with protocol_run("algorithm4_center_g", "center-g", **options) as run:
        local_kwargs = run.local_kwargs(local_solver_kwargs)
        mem_budget = run.memory_budget
        with run.backend() as backend:
            # --------------------------------------------------------------
            # Round 1a: every party reports its local distance extremes (O(s) words).
            # --------------------------------------------------------------
            extremes = run_tasks(
                _extremes_task,
                [
                    {
                        "uncertain": uncertain,
                        "shard": instance.shard(i),
                        "memory_budget": mem_budget,
                    }
                    for i in range(s)
                ],
                backend=backend,
                ledger=ledger,
                round_index=1,
                tracer=run.tracer,
            )
            for i, out in enumerate(extremes):
                site_timers[i].merge(out["timer"])
                ledger.record(Message(i, COORDINATOR, 1, "extremes", 2, out["extremes"]))
            d_min = min(out["extremes"][0] for out in extremes if out["extremes"][0] > 0)
            d_max = max(out["extremes"][1] for out in extremes)
            taus = truncation_grid(d_min, d_max, base=tau_base)

            # --------------------------------------------------------------
            # Round 1b: per-tau compressed preclustering profiles.
            # --------------------------------------------------------------
            sweeps = run_tasks(
                _tau_sweep_task,
                [
                    {
                        "uncertain": uncertain,
                        "shard": instance.shard(i),
                        "taus": taus,
                        "k": k,
                        "t": t,
                        "rho": rho,
                        "local_center_factor": local_center_factor,
                        "local_kwargs": local_kwargs,
                        "rng": site_rngs[i],
                        "memory_budget": mem_budget,
                        "workdir": run.workdir,
                    }
                    for i in range(s)
                ],
                backend=backend,
                ledger=ledger,
                round_index=1,
                tracer=run.tracer,
            )
            site_state: List[dict] = []
            for i, out in enumerate(sweeps):
                site_state.append(out["state"])
                site_timers[i].merge(out["timer"])
                site_rngs[i] = out["rng"]
                ledger.record(Message(i, COORDINATOR, 1, "tau_profiles", out["words"], out["profiles"]))

            # Coordinator: parametric search for tau_hat (Algorithm 4, line 6).
            with coord_timer.measure("tau_search"), run.tracer.span("tau_search"):
                budget = int(math.floor(rho * t))
                tau_hat = float(taus[-1])
                allocation_hat = None
                for tau in taus:
                    profiles = [site_state[i]["preclusters"][float(tau)].profile for i in range(s)]
                    allocation = allocate_outlier_budget([p.marginals() for p in profiles], budget)
                    total_cost = float(
                        sum(profiles[i](int(allocation.t_allocated[i])) for i in range(s))
                    )
                    if total_cost <= cost_budget_factor * float(tau):
                        tau_hat = float(tau)
                        allocation_hat = allocation
                        break
                if allocation_hat is None:
                    profiles = [site_state[i]["preclusters"][float(taus[-1])].profile for i in range(s)]
                    allocation_hat = allocate_outlier_budget([p.marginals() for p in profiles], budget)

            # --------------------------------------------------------------
            # Round 2: tau_hat + allocations out; preclusters (with full outlier
            # node distributions) back.
            # --------------------------------------------------------------
            for i in range(s):
                ledger.record(
                    Message(COORDINATOR, i, 2, "allocation", 2,
                            {"tau": tau_hat, "t_i": int(allocation_hat.t_allocated[i])})
                )
            round2 = run_tasks(
                _center_g_round2,
                [
                    {
                        "uncertain": uncertain,
                        "site_id": i,
                        "state": site_state[i],
                        "tau_hat": tau_hat,
                        "t_i": int(allocation_hat.t_allocated[i]),
                        "B": B,
                        "node_words": instance.node_words(),
                        "local_kwargs": local_kwargs,
                        "rng": site_rngs[i],
                        "memory_budget": mem_budget,
                        "workdir": run.workdir,
                    }
                    for i in range(s)
                ],
                backend=backend,
                ledger=ledger,
                round_index=2,
                tracer=run.tracer,
            )
            demand_anchor: List[int] = []
            demand_node: List[Optional[int]] = []   # global node id when the demand is a shipped node
            demand_weight: List[float] = []
            demand_origin: List[tuple] = []
            facility_candidates: List[np.ndarray] = []
            for i, out in enumerate(round2):
                site_state[i] = out["state"]
                site_timers[i].merge(out["timer"])
                site_rngs[i] = out["rng"]
                demand_anchor.extend(out["demand_anchor"])
                demand_node.extend(out["demand_node"])
                demand_weight.extend(out["demand_weight"])
                demand_origin.extend(out["demand_origin"])
                facility_candidates.extend(out["facility_candidates"])
                ledger.record(Message(i, COORDINATOR, 2, "local_solution", out["words"], None))

        # ------------------------------------------------------------------
        # Coordinator: weighted (k, (1+eps)t)-center over what it received.
        # ------------------------------------------------------------------
        with coord_timer.measure("final_solve"), run.tracer.span("final_solve"):
            facility_points = np.unique(np.concatenate(facility_candidates))
            n_demands = len(demand_anchor)

            def _demand_rows(row_slice: slice) -> np.ndarray:
                block = np.empty((row_slice.stop - row_slice.start, facility_points.size))
                for pos, row in enumerate(range(row_slice.start, row_slice.stop)):
                    if demand_node[row] is None:
                        block[pos] = ground.pairwise([demand_anchor[row]], facility_points)[0]
                    else:
                        node = uncertain.nodes[int(demand_node[row])]
                        block[pos] = node.expected_distances(ground, facility_points)
                return block

            # Row-blocked (each demand row is computed in one call regardless of
            # budget, so entries are bit-identical), spilling to a disk shard
            # when the matrix exceeds the budget.
            cost_matrix = materialize_rows(
                _demand_rows, n_demands, facility_points.size,
                memory_budget=mem_budget, workdir=run.workdir,
            )
            weights_arr = np.asarray(demand_weight, dtype=float)
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
        assignment_arr = coordinator_solution.assignment
        dropped = (
            coordinator_solution.dropped_weight
            if coordinator_solution.dropped_weight is not None
            else np.zeros(n_demands)
        )
        for idx, (site_id, kind, payload) in enumerate(demand_origin):
            target = int(facility_points[assignment_arr[idx]]) if assignment_arr[idx] >= 0 else -1
            state = site_state[site_id]
            if kind == "outlier":
                node_global = int(state["shard"][int(payload)])
                if target < 0:
                    node_outliers.append(node_global)
                else:
                    node_assignment[node_global] = target
                continue
            c_local = int(payload)
            members_local = np.flatnonzero(state["solution"].assignment == c_local)
            # The center objective never partially drops aggregated weight, so a
            # center demand is either fully served or fully dropped.
            fully_dropped = target < 0 or dropped[idx] >= weights_arr[idx] - 1e-9
            for j_local in members_local:
                node_global = int(state["shard"][int(j_local)])
                if fully_dropped:
                    node_outliers.append(node_global)
                else:
                    node_assignment[node_global] = target

        return DistributedResult(
            centers=centers_global,
            outlier_budget=outlier_budget,
            objective="center-g",
            cost=float(coordinator_solution.cost),
            ledger=ledger,
            rounds=2,
            outliers=np.asarray(sorted(set(node_outliers)), dtype=int),
            site_time={i: float(sum(site_timers[i].totals.values())) for i in range(s)},
            coordinator_time=float(sum(coord_timer.totals.values())),
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
