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

Both per-site phases (collapse + preclustering, and the round-2 summary
build) are :class:`repro.runtime.SiteTask`s over a
:class:`~repro.distributed.network.StarNetwork` whose sites hold only their
own nodes, exactly as Algorithm 1 runs, so the protocol runs unchanged — and
bit-identically — on any :mod:`repro.runtime` execution backend.
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
from repro.metrics.blocked import materialize, memmap_handle
from repro.runtime.tasks import SiteTask, run_site_tasks
from repro.sequential.bicriteria import bicriteria_solve
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.uncertain.collapse import collapse_nodes
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


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


def _round1_task(
    ctx, objective, k, t, rho, local_center_factor, local_kwargs,
    memory_budget=None, workdir=None,
):
    """Site phase of round 1: collapse the site's nodes, ship the cost profile.

    Returns the site's total collapse cost and its cost-matrix storage
    kind, for the result metadata.
    """
    nodes = ctx.local_metric
    ground = nodes.ground_metric
    with ctx.timer.measure("collapse"):
        anchors, collapse = collapse_nodes(nodes.nodes, ground, objective)
    with ctx.timer.measure("precluster"):
        costs = _local_compressed_costs(
            anchors, collapse, ground, objective, memory_budget, workdir
        )
        local_k = min(local_center_factor * k, ctx.n_points)
        precluster = precluster_site(
            costs, local_k, t,
            objective="means" if objective == "means" else "median",
            rho=rho, rng=ctx.rng, **local_kwargs,
        )
    ctx.state["anchors"] = anchors
    ctx.state["collapse"] = collapse
    ctx.state["precluster"] = precluster
    ctx.state["local_k"] = local_k
    ctx.send_to_coordinator("cost_profile", precluster.profile, words=precluster.profile.words)
    return float(collapse.sum()), "memmap" if memmap_handle(costs) else "dense"


def _round2_task(ctx, objective, words_per_point, local_kwargs):
    """Site phase of round 2: local solve at the allocation, summary demands out.

    Ships one demand per local center (its anchor, weighted by the nodes
    attached) and one per local outlier (its anchor and collapse cost,
    Algorithm 3 line 4).  Returns what the uncharged output step needs:
    ``t_used``, the member nodes and their costs of each center demand, and
    the node of each outlier demand.
    """
    t_i = int(ctx.messages("allocation")[0].payload["t_i"])
    with ctx.timer.measure("round2"):
        precluster = ctx.state["precluster"]
        anchors = ctx.state["anchors"]
        t_used = int(round(precluster.profile.snap_up_to_vertex(t_i)))
        t_used = min(t_used, ctx.n_points)
        solution = precluster.solution_for(
            t_used, ctx.state["local_k"], "means" if objective == "means" else "median",
            rng=ctx.rng, **local_kwargs,
        )
        collapse = ctx.state["collapse"]
        center_weights = sorted(solution.center_weights().items())
        centers = [int(c) for c, _ in center_weights]
        outliers = [int(j) for j in solution.outlier_indices]
        demands = {
            "anchor": np.asarray([anchors[j] for j in centers + outliers], dtype=int),
            "offset": np.asarray(
                [0.0] * len(centers) + [collapse[j] for j in outliers], dtype=float
            ),
            "weight": np.asarray(
                [w for _, w in center_weights] + [1.0] * len(outliers), dtype=float
            ),
        }
        members = []
        for c_local in centers:
            members_local = np.flatnonzero(solution.assignment == c_local)
            members.append((
                ctx.to_global(members_local),
                precluster.cost_matrix[members_local, c_local],
            ))
    # The point plus its count (centers) or its collapse cost (outliers).
    words = float((words_per_point + 1) * (len(centers) + len(outliers)))
    ctx.send_to_coordinator("local_solution", demands, words=words)
    return {"t_used": t_used, "centers": members, "outliers": ctx.to_global(outliers)}


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
        On the cluster backend each site's nodes ship once per run, and its
        collapse data and precluster, with the cached compressed-graph cost
        matrix, stay on the site's runner between the two rounds.

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

    ground = instance.ground_metric
    k, t = instance.k, instance.t
    network = StarNetwork(instance)
    generator = ensure_rng(rng)
    site_rngs = spawn_rngs(generator, network.n_sites)

    with protocol_run("algorithm3_uncertain", objective, **options) as run:
        network.tracer = run.trace
        local_kwargs = run.local_kwargs(local_solver_kwargs)
        mem_budget = run.memory_budget
        with run.backend() as backend:
            # --------------------------------------------------------------
            # Round 1: collapse + compressed-graph preclustering profiles.
            # --------------------------------------------------------------
            network.next_round()
            round1 = run_site_tasks(
                network,
                [
                    SiteTask(
                        i,
                        _round1_task,
                        args=(
                            objective, k, t, rho, local_center_factor, local_kwargs,
                            mem_budget, run.workdir,
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

            # --------------------------------------------------------------
            # Round 2: allocations out; centers, counts and collapsed outliers back.
            # --------------------------------------------------------------
            network.next_round()
            for site in network.sites:
                network.send_to_site(
                    site.site_id,
                    "allocation",
                    {"t_i": int(allocation.t_allocated[site.site_id])},
                    words=3,
                )
            round2 = run_site_tasks(
                network,
                [
                    SiteTask(
                        i,
                        _round2_task,
                        args=(objective, instance.words_per_point(), local_kwargs),
                        rng=site_rngs[i],
                    )
                    for i in range(network.n_sites)
                ],
                backend=backend,
            )
            demands = [
                network.coordinator.messages_from(i, "local_solution")[0].payload
                for i in range(network.n_sites)
            ]

        # ------------------------------------------------------------------
        # Coordinator: weighted clustering on the received compressed summary.
        # ------------------------------------------------------------------
        with network.coordinator.timer.measure("final_solve"), run.tracer.span("final_solve"):
            demand_anchor = np.concatenate([d["anchor"] for d in demands])
            demand_offset = np.concatenate([d["offset"] for d in demands])
            demand_weight = np.concatenate([d["weight"] for d in demands])
            facility_points = np.unique(demand_anchor)
            cost_matrix = materialize(
                ground,
                demand_anchor,
                facility_points,
                transform=lambda block, rs: (
                    (block * block if objective == "means" else block)
                    + demand_offset[rs][:, None]
                ),
                memory_budget=mem_budget,
                workdir=run.workdir,
            )

            coordinator_kwargs = dict(coordinator_solver_kwargs or {})
            if objective == "center":
                coordinator_solution = kcenter_with_outliers(
                    cost_matrix, k, t, weights=demand_weight,
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
                    weights=demand_weight,
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
            else np.zeros(demand_anchor.size)
        )
        targets = [
            int(facility_points[a]) if a >= 0 else -1 for a in coordinator_solution.assignment
        ]
        idx = 0
        for result in round2:
            # A precluster center demand: distribute the attached nodes,
            # dropping the farthest first.
            for members, member_costs in result.value["centers"]:
                target = targets[idx]
                n_drop = int(round(float(dropped[idx]))) if target >= 0 else members.size
                n_drop = min(n_drop, members.size)
                drop_positions = set(np.argsort(-member_costs, kind="stable")[:n_drop].tolist())
                for pos, node in enumerate(members):
                    if pos in drop_positions or target < 0:
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
            objective=objective,
            cost=float(coordinator_solution.cost),
            ledger=network.ledger,
            rounds=network.current_round,
            outliers=np.asarray(sorted(set(node_outliers)), dtype=int),
            site_time=network.site_times(),
            coordinator_time=network.coordinator_time(),
            coordinator_solution=coordinator_solution,
            trace=run.trace,
            metadata={
                "algorithm": "algorithm3_uncertain",
                "epsilon": float(epsilon),
                "rho": float(rho),
                "t_allocated": allocation.t_allocated.tolist(),
                "t_used": [int(r.value["t_used"]) for r in round2],
                "node_assignment": node_assignment,
                "n_coordinator_demands": int(demand_anchor.size),
                "collapse_cost_total": float(sum(r.value[0] for r in round1)),
                "memory_budget": mem_budget,
                "cost_matrix_storage": [r.value[1] for r in round1],
            },
        )


__all__ = ["distributed_uncertain_clustering"]
