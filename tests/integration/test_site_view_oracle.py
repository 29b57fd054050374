"""Oracle: a site holding only its own points never changes a result.

``DistributedInstance.site_view`` hands each site a metric over its own
points alone (:meth:`~repro.metrics.base.MetricSpace.restrict`).  The
oracle is the view every site held before, a
:class:`~repro.metrics.base.SubsetMetric` over the whole input metric.  Each
point protocol runs twice on the same instance, once as shipped and once
with ``site_view`` patched back to that view, and the two runs must agree
on centers, cost bits, outliers, words by kind and metadata (the realized
assignment included), with and without a memory budget.
"""

import numpy as np
import pytest

from repro.baselines import one_round_protocol
from repro.cluster import ClusterBackend
from repro.core import (
    distributed_partial_center,
    distributed_partial_median,
    distributed_partial_median_no_shipping,
)
from repro.data import gaussian_mixture_with_outliers
from repro.distributed import DistributedInstance, partition_balanced
from repro.metrics import EuclideanMetric, MatrixMetric, SubsetMetric
from tests.helpers import weighted_graph_metric

K, T, N_SITES = 3, 8, 3


def _euclidean(dim):
    return EuclideanMetric(gaussian_mixture_with_outliers(
        n_inliers=110, n_outliers=10, n_clusters=3, dim=dim, separation=12.0, rng=40 + dim,
    ).points)


METRICS = {
    "euclidean_d1": lambda: _euclidean(1),
    "euclidean_d2": lambda: _euclidean(2),
    "euclidean_d3": lambda: _euclidean(3),
    "euclidean_d8": lambda: _euclidean(8),
    "matrix": lambda: MatrixMetric(_euclidean(2).full_matrix()),
    "graph": lambda: weighted_graph_metric(90, seed=11),
}

#: protocol -> (objective, run(instance, **options)).  The one-round
#: baseline takes no run options, so it runs serial and unbudgeted only.
PROTOCOLS = {
    "median": ("median", lambda inst, **kw: distributed_partial_median(inst, rng=5, **kw)),
    "means": ("means", lambda inst, **kw: distributed_partial_median(inst, rng=5, **kw)),
    "center": ("center", lambda inst, **kw: distributed_partial_center(inst, rng=5, **kw)),
    "no_shipping": ("median", lambda inst, **kw: distributed_partial_median_no_shipping(
        inst, rng=5, **kw)),
    "one_round": ("median", lambda inst, **kw: one_round_protocol(inst, rng=5)),
}


@pytest.fixture(scope="module")
def metrics():
    return {name: build() for name, build in METRICS.items()}


def _instance(metric, objective):
    shards = partition_balanced(len(metric), N_SITES, rng=3)
    return DistributedInstance.from_partition(metric, shards, K, T, objective)


def _subset_view(self, site):
    return SubsetMetric(self.metric, self.shards[site])


def _run_both(monkeypatch, protocol, metric, **options):
    objective, drive = PROTOCOLS[protocol]
    instance = _instance(metric, objective)
    assert not isinstance(instance.site_view(0), SubsetMetric)
    shipped = drive(instance, **options)
    with monkeypatch.context() as patch:
        patch.setattr(DistributedInstance, "site_view", _subset_view)
        assert isinstance(instance.site_view(0), SubsetMetric)
        oracle = drive(instance, **options)
    return shipped, oracle


def _assert_bit_identical(shipped, oracle):
    np.testing.assert_array_equal(shipped.centers, oracle.centers)
    assert np.float64(shipped.cost).view(np.int64) == np.float64(oracle.cost).view(np.int64)
    if oracle.outliers is None:
        assert shipped.outliers is None
    else:
        np.testing.assert_array_equal(shipped.outliers, oracle.outliers)
    assert shipped.rounds == oracle.rounds
    assert shipped.ledger.words_by_kind() == oracle.ledger.words_by_kind()
    assert shipped.ledger.words_by_round() == oracle.ledger.words_by_round()
    np.testing.assert_equal(shipped.metadata, oracle.metadata)


SERIAL_CASES = [
    pytest.param(protocol, metric_name, budget,
                 id=f"{protocol}-{metric_name}-{'dense' if budget is None else 'budget64'}")
    for protocol in PROTOCOLS
    for metric_name in METRICS
    for budget in ([None] if protocol == "one_round" else [None, 64])
]


@pytest.mark.parametrize("protocol, metric_name, budget", SERIAL_CASES)
def test_compact_view_matches_subset_view(monkeypatch, metrics, protocol, metric_name, budget):
    options = {} if budget is None else {"memory_budget": budget}
    shipped, oracle = _run_both(monkeypatch, protocol, metrics[metric_name], **options)
    _assert_bit_identical(shipped, oracle)


@pytest.fixture(scope="module")
def cluster2():
    backend = ClusterBackend(n_hosts=2)
    yield backend
    backend.close()


@pytest.mark.cluster
@pytest.mark.parametrize(
    "protocol, metric_name",
    [("center", "euclidean_d3"), ("median", "matrix"), ("no_shipping", "graph")],
)
def test_compact_view_matches_subset_view_on_cluster(
    monkeypatch, metrics, cluster2, protocol, metric_name
):
    shipped, oracle = _run_both(monkeypatch, protocol, metrics[metric_name], backend=cluster2)
    _assert_bit_identical(shipped, oracle)
