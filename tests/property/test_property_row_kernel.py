"""Property tests: a metric's row kernel is its ``pairwise`` rows and columns, bit for bit.

``metric.row_kernel(cols)`` (:class:`~repro.metrics.base.RowKernel`) serves
the one-row sweeps of Algorithm 2's sites: ``row(i)`` must be
``pairwise([i], cols)[0]`` and ``column(j)`` must be
``pairwise(cols, [j])[:, 0]`` to the last bit, and ``nearest(candidates)``
must be ``argmin_per_row(metric, cols, candidates)`` under every memory
budget, ties resolved to the first candidate.  Euclidean's kernel gathers
its columns once and serves ``column`` from ``row`` (its formula is
symmetric in bits); every other metric uses the default, which reads
``pairwise`` in each orientation.  Bits are compared as ``int64`` views, so
``-0.0`` against ``0.0`` fails too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import EuclideanMetric, MatrixMetric, RowKernel, argmin_per_row
from repro.sequential import gonzalez
from tests.helpers import weighted_graph_metric

#: Edge values (signed zeros, repeats) next to arbitrary finite coordinates.
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
)


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.int64)


@st.composite
def euclidean_metrics(draw, n):
    d = draw(st.sampled_from([1, 2, 3, 8]))
    if draw(st.booleans()):
        # Full random mantissas: another summation order rounds differently.
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        points = np.random.default_rng(seed).uniform(-100.0, 100.0, (n, d))
    else:
        points = draw(arrays(dtype=float, shape=(n, d), elements=coordinates))
    # Duplicate points: some rows copy others.
    for target in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)):
        points[target] = points[draw(st.integers(min_value=0, max_value=n - 1))]
    return EuclideanMetric(points)


@st.composite
def matrix_metrics(draw, n):
    upper = draw(arrays(dtype=float, shape=(n, n),
                        elements=st.floats(min_value=0.0, max_value=1e6, width=64)))
    matrix = np.triu(upper, 1)
    return MatrixMetric(matrix + matrix.T)


@st.composite
def metrics(draw):
    """A metric of any kind, the subset view of one included."""
    kind = draw(st.sampled_from(["euclidean", "matrix", "graph", "subset"]))
    n = draw(st.integers(min_value=3 if kind == "graph" else 1, max_value=25))
    if kind == "graph":
        return weighted_graph_metric(n, draw(st.integers(min_value=0, max_value=2**16)))
    if kind == "matrix":
        return draw(matrix_metrics(n))
    metric = draw(euclidean_metrics(n))
    if kind == "subset":
        parent = draw(st.sampled_from([metric, draw(matrix_metrics(n))]))
        indices = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                min_size=1, max_size=n, unique=True))
        return parent.subset(indices)
    return metric


@st.composite
def index_sets(draw, n, min_size=0):
    """A contiguous run, or scattered indices (repeats allowed)."""
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=n - 1))
        stop = draw(st.integers(min_value=start + min_size, max_value=n))
        return np.arange(start, stop)
    return np.asarray(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                    min_size=min_size, max_size=2 * n)), dtype=int)


class TestRowKernelBits:
    @given(metric=metrics(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_and_column_equal_pairwise(self, metric, data):
        n = len(metric)
        cols = data.draw(index_sets(n))
        kernel = metric.row_kernel(cols)
        for point in data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                        min_size=1, max_size=4)):
            np.testing.assert_array_equal(
                _bits(kernel.row(point)), _bits(metric.pairwise([point], cols)[0])
            )
            np.testing.assert_array_equal(
                _bits(kernel.column(point)), _bits(metric.pairwise(cols, [point])[:, 0])
            )

    @given(metric=st.integers(min_value=1, max_value=25).flatmap(euclidean_metrics),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_euclidean_kernel_is_symmetric_in_bits(self, metric, data):
        """Why Euclidean's ``column`` may be its ``row``."""
        n = len(metric)
        cols = data.draw(index_sets(n))
        kernel = metric.row_kernel(cols)
        assert type(kernel) is not RowKernel  # the gathered kernel, not the default
        point = data.draw(st.integers(min_value=0, max_value=n - 1))
        np.testing.assert_array_equal(
            _bits(metric.pairwise([point], cols)[0]), _bits(metric.pairwise(cols, [point])[:, 0])
        )

    def test_non_euclidean_metrics_use_the_default(self):
        matrix = MatrixMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert type(matrix.row_kernel([0, 1])) is RowKernel
        assert type(weighted_graph_metric(5, 0).row_kernel([0, 1])) is RowKernel
        assert type(EuclideanMetric(np.zeros((3, 2))).subset([0, 2]).row_kernel([0])) is RowKernel
        # No coordinates to gather: the default serves an empty dimension.
        empty = EuclideanMetric(np.zeros((3, 0)))
        assert type(empty.row_kernel([0, 1])) is RowKernel
        np.testing.assert_array_equal(empty.row_kernel([0, 1]).row(2), [0.0, 0.0])


class TestNearestIsArgminPerRow:
    @given(metric=metrics(), data=st.data(),
           budget=st.sampled_from([None, 8, 64, 1024, "1MB"]))
    @settings(max_examples=200, deadline=None)
    def test_equals_argmin_per_row_under_budgets(self, metric, data, budget):
        n = len(metric)
        cols = data.draw(index_sets(n))
        # Repeats make duplicate candidates, whose ties go to the first.
        candidates = data.draw(index_sets(n, min_size=1))
        values, positions = metric.row_kernel(cols).nearest(candidates)
        ref_values, ref_positions = argmin_per_row(
            metric, cols, candidates, memory_budget=budget
        )
        np.testing.assert_array_equal(_bits(values), _bits(ref_values))
        np.testing.assert_array_equal(positions, ref_positions)

    def test_reads_argmin_per_rows_orientation_on_graphs(self):
        """All-pairs Dijkstra is not symmetric in its last bits, so the
        attachment must read ``d(point, candidate)`` as ``argmin_per_row``
        does.  On these graphs the transposed read attaches differently."""
        transposed_differs = []
        for seed in range(4):
            graph = weighted_graph_metric(120, seed)
            matrix = graph.full_matrix()
            assert np.any(_bits(matrix) != _bits(matrix.T))
            shard = np.random.default_rng(seed).permutation(120)[:80]
            site = graph.restrict(shard)
            cols = np.arange(len(site))
            kernel = site.row_kernel(cols)
            candidates = gonzalez(site, m=24, rng=seed).ordering
            values, positions = kernel.nearest(candidates)
            for budget in (None, 64):
                ref_values, ref_positions = argmin_per_row(
                    site, cols, candidates, memory_budget=budget
                )
                np.testing.assert_array_equal(_bits(values), _bits(ref_values))
                np.testing.assert_array_equal(positions, ref_positions)
            transposed = np.stack([kernel.row(int(c)) for c in candidates], axis=1)
            transposed_differs.append(
                np.any(_bits(transposed.min(axis=1)) != _bits(values))
            )
        assert any(transposed_differs)
