"""Assertions and helpers shared by several test modules."""

import numpy as np

from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import SiteTask, run_site_tasks


def _apply(ctx, fn, item):
    return fn(item)


def run_site_round(backend, fn, items, *, tracer=None, ledger=None):
    """Evaluate ``fn(item)`` for every item as one round of site tasks.

    A test's stand-in for a generic ``map_ordered``, which cluster and
    service backends refuse: a tiny :class:`StarNetwork` with one two-point
    site per item runs round 1 on ``backend``, so item ``i`` runs on host
    ``i % n_hosts``.  Returns the values in item order; a failing task
    raises its error like ``map_ordered`` would.  ``tracer`` traces the
    round and ``ledger`` (a ``CommunicationLedger``) records its frames.
    """
    items = list(items)
    metric = EuclideanMetric(np.arange(2.0 * len(items)).reshape(-1, 1))
    shards = [[2 * i, 2 * i + 1] for i in range(len(items))]
    network = StarNetwork(DistributedInstance.from_partition(metric, shards, 1, 0))
    network.tracer = tracer
    if ledger is not None:
        network.ledger = ledger
    network.next_round()
    results = run_site_tasks(
        network,
        [SiteTask(i, _apply, args=(fn, item)) for i, item in enumerate(items)],
        backend=backend,
    )
    return [result.value for result in results]


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
