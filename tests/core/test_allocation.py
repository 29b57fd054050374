"""Tests for the outlier-budget allocation (Lemmas 3.3 / 3.4)."""

import numpy as np
import pytest

from repro.core import CostProfile, allocate_outlier_budget
from tests.oracle.allocation import optimal_allocation_dp


def _profile_from_costs(costs):
    qs = np.arange(len(costs))
    return CostProfile.from_evaluations(qs, costs, t_max=len(costs) - 1)


class TestAllocateOutlierBudget:
    def test_budget_distributed_to_largest_marginals(self):
        # Site 0 gains a lot from its first two outliers; site 1 gains little.
        m0 = np.asarray([10.0, 8.0, 0.5, 0.1])
        m1 = np.asarray([1.0, 0.5, 0.2, 0.1])
        alloc = allocate_outlier_budget([m0, m1], budget=3)
        assert alloc.t_allocated[0] == 2
        assert alloc.t_allocated[1] == 1
        assert alloc.total_allocated == 3

    def test_total_equals_budget(self):
        rng = np.random.default_rng(0)
        marginals = [np.sort(rng.random(20))[::-1] for _ in range(5)]
        alloc = allocate_outlier_budget(marginals, budget=17)
        assert alloc.total_allocated == 17

    def test_budget_zero(self):
        alloc = allocate_outlier_budget([np.asarray([1.0, 0.5])], budget=0)
        assert alloc.total_allocated == 0
        assert alloc.exceptional_site is None

    def test_budget_exceeds_marginals(self):
        alloc = allocate_outlier_budget([np.asarray([1.0]), np.asarray([0.5])], budget=10)
        assert alloc.total_allocated == 2

    def test_threshold_is_rank_budget_value(self):
        m0 = np.asarray([10.0, 4.0])
        m1 = np.asarray([6.0, 1.0])
        alloc = allocate_outlier_budget([m0, m1], budget=2)
        # Sorted marginals: 10 (s0,q1), 6 (s1,q1), 4, 1 -> rank 2 is 6 at site 1.
        assert alloc.threshold == pytest.approx(6.0)
        assert alloc.exceptional_site == 1
        assert alloc.exceptional_q == 1

    def test_stable_tie_break_prefers_lexicographic(self):
        m0 = np.asarray([5.0, 5.0])
        m1 = np.asarray([5.0, 5.0])
        alloc = allocate_outlier_budget([m0, m1], budget=2)
        # Ties broken by (site, q): the two winners are (0,1) and (0,2).
        assert alloc.t_allocated[0] == 2
        assert alloc.t_allocated[1] == 0

    def test_increasing_marginals_rejected(self):
        with pytest.raises(ValueError):
            allocate_outlier_budget([np.asarray([1.0, 2.0])], budget=1)

    def test_negative_marginals_rejected(self):
        with pytest.raises(ValueError):
            allocate_outlier_budget([np.asarray([-0.5])], budget=1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            allocate_outlier_budget([np.asarray([1.0])], budget=-1)

    def test_no_sites_rejected(self):
        with pytest.raises(ValueError):
            allocate_outlier_budget([], budget=1)

    def test_empty_marginals_ok(self):
        alloc = allocate_outlier_budget([np.empty(0), np.empty(0)], budget=3)
        assert alloc.total_allocated == 0

    def test_different_lengths(self):
        alloc = allocate_outlier_budget(
            [np.asarray([5.0, 4.0, 3.0]), np.asarray([10.0])], budget=3
        )
        assert alloc.t_allocated[1] == 1
        assert alloc.t_allocated[0] == 2


class TestOptimalityAgainstDP:
    def test_matches_dp_on_convex_tables(self):
        rng = np.random.default_rng(2)
        profiles = []
        tables = []
        for _ in range(4):
            # Random convex non-increasing cost table on {0..12}.
            marg = np.sort(rng.random(12))[::-1] * 10
            costs = np.concatenate([[marg.sum()], marg.sum() - np.cumsum(marg)])
            tables.append(costs)
            profiles.append(_profile_from_costs(costs))
        budget = 9
        alloc = allocate_outlier_budget([p.marginals() for p in profiles], budget)
        greedy_cost = sum(p(int(q)) for p, q in zip(profiles, alloc.t_allocated))
        _, dp_cost = optimal_allocation_dp(tables, budget)
        assert greedy_cost == pytest.approx(dp_cost, rel=1e-9)

    def test_dp_traceback_valid(self):
        tables = [np.asarray([10.0, 4.0, 1.0]), np.asarray([8.0, 7.0, 6.9])]
        t_alloc, cost = optimal_allocation_dp(tables, 2)
        assert t_alloc.sum() <= 2
        assert cost == pytest.approx(tables[0][int(t_alloc[0])] + tables[1][int(t_alloc[1])])
        # Both units should go to site 0 whose marginals are much larger.
        assert t_alloc[0] == 2

    def test_dp_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_allocation_dp([np.asarray([1.0])], -1)
        with pytest.raises(ValueError):
            optimal_allocation_dp([np.empty(0)], 1)

    def test_dp_matches_brute_force_on_arbitrary_tables(self):
        """The vectorised min-plus step must equal exhaustive enumeration
        (cost *and* a feasible optimal traceback) on non-convex tables."""
        import itertools

        rng = np.random.default_rng(7)
        for trial in range(5):
            tables = [
                rng.random(int(rng.integers(1, 6))) * 10 for _ in range(3)
            ]
            budget = int(rng.integers(0, 8))
            t_alloc, cost = optimal_allocation_dp(tables, budget)
            assert t_alloc.sum() <= budget
            assert cost == pytest.approx(
                sum(tbl[min(int(q), tbl.size - 1)] for tbl, q in zip(tables, t_alloc))
            )
            best = min(
                sum(tbl[q] for tbl, q in zip(tables, qs))
                for qs in itertools.product(*(range(tbl.size) for tbl in tables))
                if sum(qs) <= budget
            )
            assert cost == pytest.approx(best)

    def test_dp_zero_budget(self):
        tables = [np.asarray([5.0, 1.0]), np.asarray([3.0, 2.0])]
        t_alloc, cost = optimal_allocation_dp(tables, 0)
        np.testing.assert_array_equal(t_alloc, [0, 0])
        assert cost == pytest.approx(8.0)

    def test_dp_ties_resolve_to_smallest_q(self):
        # Flat tables: every allocation is optimal; the ascending argmin
        # must keep q = 0 everywhere (the old scan's behaviour).
        tables = [np.full(4, 2.0), np.full(4, 3.0)]
        t_alloc, cost = optimal_allocation_dp(tables, 5)
        np.testing.assert_array_equal(t_alloc, [0, 0])
        assert cost == pytest.approx(5.0)
