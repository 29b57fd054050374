"""Assertions and helpers shared by several test modules."""

import numpy as np

from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import ExecutionBackend, SiteTask, run_site_tasks


def _apply(ctx, fn, item):
    return fn(item)


def run_site_round(backend, fn, items, *, tracer=None, ledger=None):
    """Evaluate ``fn(item)`` for every item as one round of site tasks.

    Site tasks are the one kind of work every backend runs, so this is how
    a test pushes a plain callable through a backend: a tiny
    :class:`StarNetwork` with one two-point site per item runs round 1 on
    ``backend``, so item ``i`` runs on site ``i`` (host ``i % n_hosts`` on a
    cluster pool).  Returns the values in item order; the earliest failing
    task's error is raised.  A backend instance then ends the network's
    run, so a warm pool keeps nothing of it.  ``tracer`` traces the round
    and ``ledger`` (a ``CommunicationLedger``) records its frames.
    """
    items = list(items)
    n_sites = max(len(items), 1)  # an empty round still needs a network
    metric = EuclideanMetric(np.arange(2.0 * n_sites).reshape(-1, 1))
    shards = [[2 * i, 2 * i + 1] for i in range(n_sites)]
    network = StarNetwork(DistributedInstance.from_partition(metric, shards, 1, 0))
    network.tracer = tracer
    if ledger is not None:
        network.ledger = ledger
    network.next_round()
    try:
        results = run_site_tasks(
            network,
            [SiteTask(i, _apply, args=(fn, item)) for i, item in enumerate(items)],
            backend=backend,
        )
    finally:
        if isinstance(backend, ExecutionBackend):
            backend.end_run(network)
    return [result.value for result in results]


def pool_holdings(pool):
    """What a started cluster pool holds for runs: resident keys per host, site logs."""
    pool._ensure_started()
    return [set(host.resident_keys) for host in pool._hosts], len(pool._site_logs)


def assert_counters_equal_ledger(result):
    """A traced cluster run's ``wire.bytes*`` counters equal its wire ledger.

    ``wire.bytes*`` carry the raw (pre-codec) sizes and
    ``wire.bytes_encoded*`` what physically crossed the sockets.  Both must
    equal the ledger in total, per direction and per kind, and no counter
    may name a direction or kind the ledger never recorded.  ``result``
    needs only ``.trace`` and ``.ledger.wire``.
    """
    wire = result.ledger.wire
    directions = {rec.direction for rec in wire.records}
    expected = {
        "wire.bytes": wire.total_raw_bytes(),
        "wire.bytes_encoded": wire.total_bytes(),
    }
    for prefix, by_direction, by_kind in (
        ("wire.bytes", wire.raw_bytes_by_direction(), wire.raw_bytes_by_kind()),
        ("wire.bytes_encoded", wire.bytes_by_direction(), wire.bytes_by_kind()),
    ):
        expected.update({f"{prefix}.{d}": by_direction[d] for d in directions})
        expected.update({f"{prefix}.{kind}": n for kind, n in by_kind.items()})
    actual = {
        name: int(value) for name, value in result.trace.metrics.counters.items()
        if name.startswith("wire.bytes")
    }
    assert actual == expected


def weighted_graph_metric(n, seed):
    """A ``GraphMetric`` over a connected small-world graph with random weights."""
    import networkx as nx

    from repro.metrics import GraphMetric

    rng = np.random.default_rng(seed)
    graph = nx.connected_watts_strogatz_graph(n, min(4, n - 1), 0.3, seed=seed)
    for u, v in graph.edges:
        graph[u][v]["weight"] = float(rng.uniform(0.5, 3.0))
    return GraphMetric(graph)
