"""Blocked-vs-dense parity: every protocol must be bit-identical across budgets.

Modeled on ``tests/runtime/test_cluster_parity.py``: for a fixed seed, a
protocol run under any ``memory_budget`` — including one small enough to
spill every site's cost matrix to a disk shard, and one smaller than a
single matrix row — returns the same centers, the same cost and the same
ledger word counts as the dense (``memory_budget=None``) run.  Memory
discipline is a pure execution detail.
"""

import numpy as np
import pytest

from repro import (
    partial_kcenter,
    partial_kmeans,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping

# The small workload has 165 points over 3 sites (55 per site), so one row of
# a site cost matrix is 55 * 8 = 440 bytes: 4096 spills matrices to disk
# shards, and 64 is *smaller than one row* (tiles degenerate to row slivers).
BUDGETS = [1 << 30, 4096, 64]


def _assert_same_result(base, other):
    np.testing.assert_array_equal(base.centers, other.centers)
    assert base.cost == other.cost
    assert base.rounds == other.rounds
    assert base.ledger.total_words() == other.ledger.total_words()
    assert base.ledger.words_by_round() == other.ledger.words_by_round()
    assert base.ledger.words_by_kind() == other.ledger.words_by_kind()
    assert base.ledger.n_messages() == other.ledger.n_messages()
    if base.outliers is None:
        assert other.outliers is None
    else:
        np.testing.assert_array_equal(base.outliers, other.outliers)
    assert base.metadata["t_allocated"] == other.metadata["t_allocated"]


class TestDeterministicProtocolParity:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_kmedian(self, small_workload, budget):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        other = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42, memory_budget=budget
        )
        _assert_same_result(base, other)

    def test_kmedian_small_budget_uses_memmap_shards(self, small_workload):
        result = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42, memory_budget=4096
        )
        assert result.metadata["memory_budget"] == 4096
        assert result.metadata["cost_matrix_storage"] == ["memmap"] * 3

    def test_kmedian_generous_budget_stays_dense(self, small_workload):
        result = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42, memory_budget=1 << 30
        )
        assert result.metadata["cost_matrix_storage"] == ["dense"] * 3

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_kmeans(self, small_workload, budget):
        base = partial_kmeans(small_workload.points, 3, 15, n_sites=3, seed=42)
        other = partial_kmeans(
            small_workload.points, 3, 15, n_sites=3, seed=42, memory_budget=budget
        )
        _assert_same_result(base, other)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_kcenter(self, small_workload, budget):
        base = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42)
        other = partial_kcenter(
            small_workload.points, 3, 15, n_sites=3, seed=42, memory_budget=budget
        )
        _assert_same_result(base, other)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_no_shipping_variant(self, small_instance, budget):
        base = distributed_partial_median_no_shipping(small_instance, rng=42)
        other = distributed_partial_median_no_shipping(
            small_instance, rng=42, memory_budget=budget
        )
        _assert_same_result(base, other)

    def test_string_budget_spec(self, small_workload):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        other = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42, memory_budget="4KB"
        )
        _assert_same_result(base, other)


class TestUncertainProtocolParity:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_uncertain_kmedian(self, small_uncertain_workload, budget):
        base = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42
        )
        other = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            memory_budget=budget,
        )
        _assert_same_result(base, other)
        assert base.metadata["node_assignment"] == other.metadata["node_assignment"]

    @pytest.mark.parametrize("budget", [1 << 30, 2048])
    def test_center_g(self, small_uncertain_workload, budget):
        base = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42
        )
        other = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            memory_budget=budget,
        )
        _assert_same_result(base, other)
        assert base.metadata["tau_hat"] == other.metadata["tau_hat"]


class TestBudgetComposesWithRuntime:
    @pytest.mark.cluster
    def test_memmap_state_on_cluster(self, small_workload):
        """Disk-backed site state stays on its runner between the rounds.

        Each site's round-1 state holds a memmap cost matrix.  On a cluster
        pool it stays resident on the runner that built it (the state
        digest sizes it without reading it), and round 2 solves from it,
        bit-identically to the serial dense run.
        """
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        other = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend="cluster:2", memory_budget=4096,
        )
        _assert_same_result(base, other)
        assert other.metadata["cost_matrix_storage"] == ["memmap"] * 3
