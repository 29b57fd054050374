"""Property-based tests for the outlier-budget allocation (Lemma 3.3 optimality)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import allocate_outlier_budget
from tests.oracle.allocation import optimal_allocation_dp


@st.composite
def convex_site_tables(draw):
    """A list of convex non-increasing cost tables, one per site."""
    n_sites = draw(st.integers(min_value=1, max_value=5))
    tables = []
    for _ in range(n_sites):
        length = draw(st.integers(min_value=1, max_value=12))
        marg = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
                    min_size=length,
                    max_size=length,
                )
            ),
            reverse=True,
        )
        start = float(sum(marg))
        tables.append(np.concatenate([[start], start - np.cumsum(marg)]))
    return tables


class TestAllocationProperties:
    @given(tables=convex_site_tables(), budget=st.integers(min_value=0, max_value=30))
    @settings(max_examples=120, deadline=None)
    def test_total_never_exceeds_budget(self, tables, budget):
        marginals = [np.maximum(t[:-1] - t[1:], 0.0) for t in tables]
        alloc = allocate_outlier_budget(marginals, budget)
        assert alloc.total_allocated <= budget
        for ti, m in zip(alloc.t_allocated, marginals):
            assert 0 <= ti <= m.size

    @given(tables=convex_site_tables(), budget=st.integers(min_value=0, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_matches_dp_optimum_on_convex_inputs(self, tables, budget):
        marginals = [np.maximum(t[:-1] - t[1:], 0.0) for t in tables]
        alloc = allocate_outlier_budget(marginals, budget)
        greedy_cost = sum(
            float(tables[i][min(int(alloc.t_allocated[i]), tables[i].size - 1)])
            for i in range(len(tables))
        )
        _, dp_cost = optimal_allocation_dp(tables, budget)
        assert greedy_cost <= dp_cost + 1e-6

    @given(tables=convex_site_tables(), budget=st.integers(min_value=1, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_per_site_allocation_is_prefix_of_winners(self, tables, budget):
        # Because marginals are non-increasing within a site, the winning set
        # of a site must be exactly its first t_i marginals: granting q but not
        # q-1 would contradict the ordering.
        marginals = [np.maximum(t[:-1] - t[1:], 0.0) for t in tables]
        alloc = allocate_outlier_budget(marginals, budget)
        threshold = alloc.threshold
        for i, m in enumerate(marginals):
            ti = int(alloc.t_allocated[i])
            if ti < m.size:
                # Everything beyond the prefix is no larger than the threshold.
                assert np.all(m[ti:] <= threshold + 1e-9)

    @given(tables=convex_site_tables(), budget=st.integers(min_value=0, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_deterministic(self, tables, budget):
        marginals = [np.maximum(t[:-1] - t[1:], 0.0) for t in tables]
        a = allocate_outlier_budget(marginals, budget)
        b = allocate_outlier_budget(marginals, budget)
        assert np.array_equal(a.t_allocated, b.t_allocated)
        assert a.threshold == b.threshold
