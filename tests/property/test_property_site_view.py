"""Property tests: a site's view of its points equals the global metric bit for bit.

``DistributedInstance.site_view`` gives each site a metric over its own
points alone (:meth:`~repro.metrics.base.MetricSpace.restrict`): a copy of
its rows for a Euclidean metric, its block of the matrix for a matrix or
graph metric.  Every protocol result stays bit-identical only if every
distance a site computes through that view is the global metric's, to the
last bit, for any shard and any index set, contiguous or not.  Bits are
compared as ``int64`` views, so ``-0.0`` against ``0.0`` would fail too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distributed import DistributedInstance
from repro.metrics import EuclideanMetric, MatrixMetric
from tests.helpers import weighted_graph_metric

coordinates = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64)


@st.composite
def euclidean_metrics(draw, n):
    d = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        # Full random mantissas: a kernel that sums the d squares in
        # another order rounds differently on most of these.
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return EuclideanMetric(np.random.default_rng(seed).uniform(-100.0, 100.0, (n, d)))
    # Edge values: zeros, repeats, duplicate points.
    return EuclideanMetric(draw(arrays(dtype=float, shape=(n, d), elements=coordinates)))


@st.composite
def matrix_metrics(draw, n):
    # Any finite, symmetric, zero-diagonal, non-negative matrix is accepted.
    upper = draw(arrays(dtype=float, shape=(n, n),
                        elements=st.floats(min_value=0.0, max_value=1e6, width=64)))
    matrix = np.triu(upper, 1)
    return MatrixMetric(matrix + matrix.T)


@st.composite
def graph_metrics(draw, n):
    return weighted_graph_metric(n, draw(st.integers(min_value=0, max_value=2**16)))


@st.composite
def site_views(draw):
    """A metric, a random partition into shards, and one site's view."""
    kind = draw(st.sampled_from(["euclidean", "matrix", "graph"]))
    n = draw(st.integers(min_value=3 if kind == "graph" else 2, max_value=30))
    metric = draw({"euclidean": euclidean_metrics, "matrix": matrix_metrics,
                   "graph": graph_metrics}[kind](n))
    order = np.asarray(draw(st.permutations(range(n))))
    n_sites = draw(st.integers(min_value=1, max_value=min(4, n)))
    cuts = sorted(draw(st.lists(st.integers(min_value=1, max_value=n - 1),
                                min_size=n_sites - 1, max_size=n_sites - 1, unique=True)))
    shards = np.split(order, cuts)
    instance = DistributedInstance.from_partition(metric, shards, 1, 0, "median")
    site = draw(st.integers(min_value=0, max_value=n_sites - 1))
    return metric, instance.shard(site), instance.site_view(site)


@st.composite
def local_indices(draw, n_local):
    """A contiguous run, or any list of local indices (repeats allowed)."""
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=n_local - 1))
        stop = draw(st.integers(min_value=start + 1, max_value=n_local))
        return np.arange(start, stop)
    return np.asarray(draw(st.lists(st.integers(min_value=0, max_value=n_local - 1),
                                    min_size=1, max_size=2 * n_local)), dtype=int)


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.int64)


class TestSiteViewBits:
    @given(case=site_views(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pairwise_equals_global(self, case, data):
        metric, shard, view = case
        assert len(view) == shard.size
        assert view.words_per_point == metric.words_per_point
        rows = data.draw(local_indices(shard.size))
        cols = data.draw(local_indices(shard.size))
        np.testing.assert_array_equal(
            _bits(view.pairwise(rows, cols)), _bits(metric.pairwise(shard[rows], shard[cols]))
        )
        i, j = int(rows[0]), int(cols[-1])
        assert _bits([view.distance(i, j)]) == _bits([metric.distance(shard[i], shard[j])])

    @given(case=site_views(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_distances_from_is_the_pairwise_row(self, case, data):
        _, shard, view = case
        j = data.draw(st.integers(min_value=0, max_value=shard.size - 1))
        cols = data.draw(local_indices(shard.size))
        np.testing.assert_array_equal(
            _bits(view.distances_from(j, cols)), _bits(view.pairwise([j], cols)[0])
        )

    @given(case=site_views())
    @settings(max_examples=30, deadline=None)
    def test_view_holds_only_the_site(self, case):
        metric, shard, view = case
        assert type(view) is (EuclideanMetric if isinstance(metric, EuclideanMetric)
                              else MatrixMetric)
