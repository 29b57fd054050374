"""Algorithm 3: distributed partial clustering of uncertain data.

Uncertain median / means / center-pp reduce to deterministic clustering on
the *compressed graph* (Definition 5.2): each node ``j`` collapses to its
1-median ``y_j`` (1-mean ``y'_j`` for means), and the collapse cost
``l_j = E[d(sigma(j), y_j)]`` rides along as an additive offset.  Lemmas
5.3-5.5 show this loses only a constant factor.  Crucially, a site can
evaluate all compressed-graph distances *locally* — ``d_G(p_j, u) = l_j +
d(y_j, u)`` needs only the node's own collapse data — so Algorithm 1 (or 2)
runs unchanged on the compressed instance.  Whenever a node would be shipped
(a local outlier), the site sends its anchor ``y_j`` and collapse cost
instead of the full distribution, keeping the communication at
``Õ((sk + t) B)`` rather than ``Õ((sk + t) I)`` (Theorem 5.6).

Site-local phases (collapse + preclustering, and the round-2 summary build)
run through :func:`repro.runtime.run_tasks`, so they fan out to any
execution backend; the coordinator merges per-site contributions in site-id
order, keeping results and ledger word counts backend-invariant.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.allocation import allocate_outlier_budget
from repro.core.preclustering import precluster_site
from repro.core.run import protocol_run
from repro.distributed.instance import UncertainDistributedInstance
from repro.distributed.messages import CommunicationLedger, Message, COORDINATOR
from repro.distributed.result import DistributedResult
from repro.metrics.blocked import materialize, memmap_handle
from repro.runtime.tasks import run_tasks
from repro.sequential.bicriteria import bicriteria_solve
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.uncertain.collapse import collapse_nodes
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.utils.timing import Timer


def _local_compressed_costs(
    anchors: np.ndarray,
    collapse: np.ndarray,
    ground_metric,
    objective: str,
    memory_budget=None,
    workdir=None,
) -> np.ndarray:
    """Node-by-node compressed-graph assignment costs within one site.

    Demand ``j`` (a node) served by facility ``j'`` (the anchor of another
    local node) costs ``l_j + d(y_j, y_{j'})`` for median/center-pp, and
    ``l'_j + d^2(y'_j, y'_{j'})`` for means (Lemma 5.5(b)).

    Under a ``memory_budget`` the matrix is produced in row blocks (squaring
    and collapse offsets are per-row, so entries are bit-identical) and
    spills to a disk shard under ``workdir`` when larger than the budget.
    """
    def transform(block, row_slice):
        if objective == "means":
            block = block * block
        return block + collapse[row_slice][:, None]

    return materialize(
        ground_metric,
        anchors,
        anchors,
        transform=transform,
        memory_budget=memory_budget,
        workdir=workdir,
    )


def _uncertain_round1(payload: dict) -> dict:
    """Site phase of round 1: collapse the shard and precluster its compressed graph."""
    uncertain = payload["uncertain"]
    shard = payload["shard"]
    objective = payload["objective"]
    rng = payload["rng"]
    ground = uncertain.ground_metric
    timer = Timer()
    with timer.measure("collapse"):
        nodes = [uncertain.nodes[int(j)] for j in shard]
        anchors, collapse = collapse_nodes(nodes, ground, objective)
    with timer.measure("precluster"):
        costs = _local_compressed_costs(
            anchors, collapse, ground, objective,
            payload.get("memory_budget"), payload.get("workdir"),
        )
        local_k = min(payload["local_center_factor"] * payload["k"], shard.size)
        precluster = precluster_site(
            costs, local_k, payload["t"],
            objective="means" if objective == "means" else "median",
            rho=payload["rho"], rng=rng, **payload["local_kwargs"],
        )
    return {
        "state": {
            "shard": shard,
            "anchors": anchors,
            "collapse": collapse,
            "precluster": precluster,
            "local_k": local_k,
            "cost_storage": "memmap" if memmap_handle(costs) else "dense",
        },
        "timer": timer,
        "rng": rng,
    }


def _uncertain_round2(payload: dict) -> dict:
    """Site phase of round 2: local solve at the allocation, summary demands out."""
    state = payload["state"]
    objective = payload["objective"]
    t_i = payload["t_i"]
    B = payload["B"]
    rng = payload["rng"]
    site_id = payload["site_id"]
    timer = Timer()
    demand_anchor: List[int] = []
    demand_offset: List[float] = []
    demand_weight: List[float] = []
    demand_origin: List[tuple] = []
    with timer.measure("round2"):
        precluster = state["precluster"]
        t_used = int(round(precluster.profile.snap_up_to_vertex(t_i)))
        t_used = min(t_used, state["shard"].size)
        solution = precluster.solution_for(
            t_used, state["local_k"], "means" if objective == "means" else "median",
            rng=rng, **payload["local_kwargs"],
        )
        state["t_i"] = t_used
        state["solution"] = solution

        # Local centers: facility index -> the anchor ground point; weight
        # = number of nodes attached.
        center_weights = solution.center_weights()
        words = 0.0
        for c_local, weight in sorted(center_weights.items()):
            anchor_point = int(state["anchors"][int(c_local)])
            demand_anchor.append(anchor_point)
            demand_offset.append(0.0)
            demand_weight.append(float(weight))
            demand_origin.append((site_id, "center", int(c_local)))
            words += B + 1  # the point plus its count
        # Local outliers: ship (y_j, l_j) per node (Algorithm 3, line 4).
        for j_local in solution.outlier_indices:
            demand_anchor.append(int(state["anchors"][int(j_local)]))
            demand_offset.append(float(state["collapse"][int(j_local)]))
            demand_weight.append(1.0)
            demand_origin.append((site_id, "outlier", int(j_local)))
            words += B + 1
    return {
        "state": state,
        "timer": timer,
        "rng": rng,
        "words": words,
        "demand_anchor": demand_anchor,
        "demand_offset": demand_offset,
        "demand_weight": demand_weight,
        "demand_origin": demand_origin,
    }


def distributed_uncertain_clustering(
    instance: UncertainDistributedInstance,
    *,
    epsilon: float = 0.5,
    rho: float = 2.0,
    local_center_factor: int = 2,
    rng: RngLike = None,
    local_solver_kwargs: Optional[dict] = None,
    coordinator_solver_kwargs: Optional[dict] = None,
    **options: Any,
) -> DistributedResult:
    """Distributed uncertain ``(k, (1+eps)t)``-median/means/center-pp (Theorem 5.6).

    Parameters
    ----------
    instance:
        The uncertain input with nodes partitioned across sites; the
        objective must be ``"median"``, ``"means"`` or ``"center"``
        (interpreted as center-pp).
    epsilon, rho, local_center_factor:
        As in :func:`repro.core.algorithm1.distributed_partial_median`.
    options:
        Run options, documented once on :func:`repro.core.run.protocol_run`.
        The coordinator holds the per-site state and re-ships it with each
        round's payload, so the cluster backend's runner-resident site state
        does not apply here; the wire ledger reports that traffic honestly.

    Returns
    -------
    DistributedResult
        ``centers`` are *ground point* indices (points of ``P``); ``outliers``
        are *node* indices; ``metadata["node_assignment"]`` maps every served
        node to its center for exact objective evaluation.
    """
    objective = str(instance.objective).lower()
    if objective not in ("median", "means", "center"):
        raise ValueError(f"unsupported uncertain objective {objective!r}")
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

    with protocol_run("algorithm3_uncertain", objective, **options) as run:
        local_kwargs = run.local_kwargs(local_solver_kwargs)
        mem_budget = run.memory_budget
        with run.backend() as backend:
            # --------------------------------------------------------------
            # Round 1: collapse + compressed-graph preclustering profiles.
            # --------------------------------------------------------------
            round1 = run_tasks(
                _uncertain_round1,
                [
                    {
                        "uncertain": uncertain,
                        "shard": instance.shard(i),
                        "objective": objective,
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
            for i, out in enumerate(round1):
                site_state.append(out["state"])
                site_timers[i].merge(out["timer"])
                site_rngs[i] = out["rng"]
                profile = out["state"]["precluster"].profile
                ledger.record(Message(i, COORDINATOR, 1, "cost_profile", profile.words, profile))

            with coord_timer.measure("allocation"), run.tracer.span("allocation"):
                marginals = [st["precluster"].profile.marginals() for st in site_state]
                budget = int(math.floor(rho * t))
                allocation = allocate_outlier_budget(marginals, budget)

            # --------------------------------------------------------------
            # Round 2: allocations out; centers, counts and collapsed outliers back.
            # --------------------------------------------------------------
            for i in range(s):
                ledger.record(
                    Message(COORDINATOR, i, 2, "allocation", 3, {"t_i": int(allocation.t_allocated[i])})
                )
            round2 = run_tasks(
                _uncertain_round2,
                [
                    {
                        "site_id": i,
                        "state": site_state[i],
                        "objective": objective,
                        "t_i": int(allocation.t_allocated[i]),
                        "B": B,
                        "local_kwargs": local_kwargs,
                        "rng": site_rngs[i],
                    }
                    for i in range(s)
                ],
                backend=backend,
                ledger=ledger,
                round_index=2,
                tracer=run.tracer,
            )
            demand_anchor: List[int] = []      # ground point each coordinator demand sits at
            demand_offset: List[float] = []    # additive collapse offset of the demand
            demand_weight: List[float] = []
            demand_origin: List[tuple] = []    # (site, kind, payload) for mapping back
            for i, out in enumerate(round2):
                site_state[i] = out["state"]
                site_timers[i].merge(out["timer"])
                site_rngs[i] = out["rng"]
                demand_anchor.extend(out["demand_anchor"])
                demand_offset.extend(out["demand_offset"])
                demand_weight.extend(out["demand_weight"])
                demand_origin.extend(out["demand_origin"])
                ledger.record(Message(i, COORDINATOR, 2, "local_solution", out["words"], None))

        # ------------------------------------------------------------------
        # Coordinator: weighted clustering on the received compressed summary.
        # ------------------------------------------------------------------
        with coord_timer.measure("final_solve"), run.tracer.span("final_solve"):
            demand_anchor_arr = np.asarray(demand_anchor, dtype=int)
            demand_offset_arr = np.asarray(demand_offset, dtype=float)
            demand_weight_arr = np.asarray(demand_weight, dtype=float)
            facility_points = np.unique(demand_anchor_arr)
            cost_matrix = materialize(
                ground,
                demand_anchor_arr,
                facility_points,
                transform=lambda block, rs: (
                    (block * block if objective == "means" else block)
                    + demand_offset_arr[rs][:, None]
                ),
                memory_budget=mem_budget,
                workdir=run.workdir,
            )

            coordinator_kwargs = dict(coordinator_solver_kwargs or {})
            if objective == "center":
                coordinator_solution = kcenter_with_outliers(
                    cost_matrix, k, t, weights=demand_weight_arr,
                    memory_budget=mem_budget, **coordinator_kwargs
                )
                outlier_budget = float(t)
            else:
                coordinator_solution = bicriteria_solve(
                    cost_matrix,
                    k,
                    t,
                    epsilon=epsilon,
                    relax="outliers",
                    objective="means" if objective == "means" else "median",
                    weights=demand_weight_arr,
                    rng=generator,
                    memory_budget=mem_budget,
                    **coordinator_kwargs,
                )
                outlier_budget = float(math.floor((1.0 + epsilon) * t + 1e-9))

            centers_global = facility_points[coordinator_solution.centers]

        # ------------------------------------------------------------------
        # Output: expand to a per-node assignment (uncharged output step).
        # ------------------------------------------------------------------
        node_assignment: Dict[int, int] = {}
        node_outliers: List[int] = []
        dropped = (
            coordinator_solution.dropped_weight
            if coordinator_solution.dropped_weight is not None
            else np.zeros(demand_anchor_arr.size)
        )
        assignment_arr = coordinator_solution.assignment
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
            # A precluster center demand: distribute the attached nodes.
            c_local = int(payload)
            members_local = np.flatnonzero(state["solution"].assignment == c_local)
            member_costs = state["precluster"].cost_matrix[members_local, c_local]
            n_drop = int(round(float(dropped[idx]))) if target >= 0 else members_local.size
            n_drop = min(n_drop, members_local.size)
            drop_positions = set(np.argsort(-member_costs, kind="stable")[:n_drop].tolist())
            for pos, j_local in enumerate(members_local):
                node_global = int(state["shard"][int(j_local)])
                if pos in drop_positions or target < 0:
                    node_outliers.append(node_global)
                else:
                    node_assignment[node_global] = target

        return DistributedResult(
            centers=centers_global,
            outlier_budget=outlier_budget,
            objective=objective,
            cost=float(coordinator_solution.cost),
            ledger=ledger,
            rounds=2,
            outliers=np.asarray(sorted(set(node_outliers)), dtype=int),
            site_time={i: float(sum(site_timers[i].totals.values())) for i in range(s)},
            coordinator_time=float(sum(coord_timer.totals.values())),
            coordinator_solution=coordinator_solution,
            trace=run.trace,
            metadata={
                "algorithm": "algorithm3_uncertain",
                "epsilon": float(epsilon),
                "rho": float(rho),
                "t_allocated": allocation.t_allocated.tolist(),
                "t_used": [int(state["t_i"]) for state in site_state],
                "node_assignment": node_assignment,
                "n_coordinator_demands": int(demand_anchor_arr.size),
                "collapse_cost_total": float(sum(float(st["collapse"].sum()) for st in site_state)),
                "memory_budget": mem_budget,
                "cost_matrix_storage": [st.get("cost_storage") for st in site_state],
            },
        )


__all__ = ["distributed_uncertain_clustering"]
