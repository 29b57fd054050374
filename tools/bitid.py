"""Print one digest line per seeded serial run of a source tree.

Two trees give the same lines exactly when their results are bit-identical,
so a change is checked against its parent by diffing the two outputs::

    D=$(mktemp -d) && mkdir "$D/parent"
    git archive HEAD~1 | tar -x -C "$D/parent"
    python tools/bitid.py "$D/parent" > "$D/parent.txt"
    python tools/bitid.py . > "$D/change.txt"
    diff "$D/parent.txt" "$D/change.txt" && echo "bit-identical: $(wc -l < "$D/change.txt") runs"

The tree argument defaults to the checkout this script lives in; its
``src`` and root go first on ``sys.path``, so each run imports only that
tree.  A run's line holds ``cost.hex()``, words, the outlier count and a
hash of centers, cost, words, outliers, rounds and all of ``metadata``.  A
``coord/`` line hashes the coordinator's weighted solution (centers,
assignment, cost, dropped weights and metadata, ``radius_guess`` and
``probe_rounds`` included) for the runs whose coordinator solves a
weighted k-center: Algorithm 3's center-pp, center-g, and a t = 200
``partial_kcenter`` under budgets that hold and that stream the solver's
facility-major copy.  Then ``partial_kmedian`` and ``partial_kmeans`` run
under budgets whose swap tiles hold one candidate (64 B) and all of them
(1 MB), and an ``ls/`` line hashes a direct ``local_search_partial``
solution (centers, assignment, cost, dropped weights and metadata) on a
150-point site matrix: unit weights at whole and fractional budgets, and
integer and fractional weights.  Canonical forms keep dict order out of
the hash.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np


def canon(x):
    if isinstance(x, np.ndarray):
        return ("nd", x.dtype.str, x.shape, canon(x.tolist()))
    if isinstance(x, np.generic):
        return canon(x.item())
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return sorted((repr(canon(k)), canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return repr(x)


def sha(body) -> str:
    return hashlib.sha256(repr(canon(body)).encode()).hexdigest()[:16]


def line(name, r):
    body = [r.centers, r.cost, r.ledger.total_words(), r.outliers, r.rounds, r.metadata]
    print(f"{name} cost={float(r.cost).hex()} words={r.ledger.total_words()} "
          f"outliers={0 if r.outliers is None else len(r.outliers)} sha={sha(body)}", flush=True)


def solution_body(s):
    return [s.centers, s.assignment, s.cost, s.outlier_weight, s.dropped_weight, s.metadata]


def coordinator_line(name, r):
    s = r.coordinator_solution
    radius = s.metadata.get("radius_guess")
    print(f"coord/{name} cost={float(s.cost).hex()} "
          f"radius={None if radius is None else float(radius).hex()} "
          f"probe_rounds={s.metadata.get('probe_rounds')} sha={sha(solution_body(s))}", flush=True)


def solution_line(name, s):
    print(f"{name} cost={float(s.cost).hex()} iterations={s.metadata.get('iterations')} "
          f"sha={sha(solution_body(s))}", flush=True)


def graph_metric(n, seed):
    import networkx as nx
    from repro.metrics import GraphMetric

    rng = np.random.default_rng(seed)
    graph = nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=seed)
    for u, v in graph.edges:
        graph[u][v]["weight"] = float(rng.uniform(0.5, 3.0))
    return GraphMetric(graph)


def main(tree):
    sys.path[:0] = [tree + "/src", tree]
    from perfbench.workloads import WORKLOADS
    from repro import (
        partial_kcenter,
        partial_kmeans,
        partial_kmedian,
        uncertain_partial_kcenter_g,
        uncertain_partial_kmedian,
    )
    from repro.core import distributed_partial_center, distributed_partial_median_no_shipping
    from repro.data import gaussian_mixture_with_outliers, uncertain_nodes_from_mixture
    from repro.distributed.instance import DistributedInstance
    from repro.metrics import EuclideanMetric, MatrixMetric
    from repro.sequential import local_search_partial

    for name in ("kmedian_sites", "kcenter_sites"):  # both perfbench shapes
        w = WORKLOADS[name]
        for seed in (1, 2, 3):
            for v, points in enumerate(w.inputs(seed)):
                line(f"{name}/seed{seed}/v{v}", w.run(points, v, "serial"))
    for seed in (1, 2, 3):
        pts = gaussian_mixture_with_outliers(300, 20, 3, dim=2, rng=seed).points
        for fn in (partial_kmedian, partial_kmeans, partial_kcenter):
            line(f"{fn.__name__}/seed{seed}", fn(pts, 3, 20, n_sites=4, seed=seed))
        inst = DistributedInstance.from_partition(
            EuclideanMetric(pts), np.array_split(np.arange(len(pts)), 4), 3, 20, "median")
        line(f"no_shipping/seed{seed}", distributed_partial_median_no_shipping(inst, rng=seed))
        u = uncertain_nodes_from_mixture(120, 10, 3, ground_size=400, rng=seed).instance
        for fn in (uncertain_partial_kmedian, uncertain_partial_kcenter_g):
            line(f"{fn.__name__}/seed{seed}", fn(u, 3, 10, n_sites=4, seed=seed))
        # k-center under budgets, in R^5, and over matrix and graph metrics.
        for budget in (64, 4096, "1MB"):
            line(f"partial_kcenter/seed{seed}/budget{budget}",
                 partial_kcenter(pts, 3, 20, n_sites=4, seed=seed, memory_budget=budget))
        pts5 = gaussian_mixture_with_outliers(200, 12, 3, dim=5, rng=seed).points
        line(f"partial_kcenter_d5/seed{seed}", partial_kcenter(pts5, 3, 12, n_sites=3, seed=seed))
        for kind, metric, n, t in (
            ("matrix", MatrixMetric(EuclideanMetric(pts[:160]).full_matrix()), 160, 10),
            ("graph", graph_metric(120, seed), 120, 8),
        ):
            shards = np.array_split(np.random.default_rng(seed).permutation(n), 3)
            inst = DistributedInstance.from_partition(metric, shards, 3, t, "center")
            line(f"{kind}_kcenter/seed{seed}", distributed_partial_center(inst, rng=seed))
            line(f"{kind}_kcenter/seed{seed}/budget64",
                 distributed_partial_center(inst, rng=seed, memory_budget=64))
    # The coordinator's weighted k-center solutions.
    for seed in (1, 2, 3):
        u = uncertain_nodes_from_mixture(120, 10, 3, ground_size=400, rng=seed).instance
        coordinator_line(f"center_pp/seed{seed}",
                         uncertain_partial_kmedian(u, 3, 10, objective="center", n_sites=4, seed=seed))
        coordinator_line(f"center_g/seed{seed}",
                         uncertain_partial_kcenter_g(u, 3, 10, n_sites=4, seed=seed))
        pts = gaussian_mixture_with_outliers(1400, 200, 4, dim=2, rng=seed).points
        for budget in (None, 4096, "8MB"):
            coordinator_line(f"partial_kcenter_t200/seed{seed}/budget{budget}",
                             partial_kcenter(pts, 4, 200, n_sites=4, seed=seed, memory_budget=budget))
    # Median and means under budgets: a swap tile holds one candidate or all.
    for seed in (1, 2, 3):
        pts = gaussian_mixture_with_outliers(300, 20, 3, dim=2, rng=seed).points
        for fn in (partial_kmedian, partial_kmeans):
            for budget in (64, 4096, "1MB"):
                line(f"{fn.__name__}/seed{seed}/budget{budget}",
                     fn(pts, 3, 20, n_sites=4, seed=seed, memory_budget=budget))
    # The site search itself: unit weights at whole and fractional budgets,
    # which take both sides of the costs-only trim, then weighted demands.
    for seed in (1, 2, 3):
        pts = gaussian_mixture_with_outliers(140, 10, 3, dim=2, rng=seed).points
        costs = EuclideanMetric(pts).full_matrix()
        rng = np.random.default_rng(seed)
        for name, weights, t in (
            *((f"unit/t{t}", None, t) for t in (0, 1, 20, 20.5, 149, 150)),
            ("int/t20", rng.integers(1, 6, size=150).astype(float), 20),
            ("frac/t20", rng.random(150) * 3, 20),
        ):
            solution_line(f"ls/seed{seed}/{name}",
                          local_search_partial(costs, 4, t, weights, rng=seed))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parent.parent))
