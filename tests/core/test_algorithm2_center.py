"""Tests for Algorithm 2 (distributed (k, t)-center)."""

import numpy as np
import pytest

from repro.analysis import evaluate_centers
from repro.baselines import centralized_reference
from repro.core import distributed_partial_center
from repro.distributed import DistributedInstance, partition_outliers_concentrated
from repro.metrics import MatrixMetric
from tests.helpers import weighted_graph_metric


@pytest.fixture(scope="module")
def result(small_center_instance):
    return distributed_partial_center(small_center_instance, rng=0)


class TestAlgorithm2Structure:
    def test_two_rounds(self, result):
        assert result.rounds == 2

    def test_budgets(self, result, small_center_instance):
        assert result.n_centers <= small_center_instance.k
        assert result.outlier_budget == small_center_instance.t
        assert result.outliers.size <= small_center_instance.t

    def test_message_kinds(self, result):
        kinds = result.ledger.words_by_kind()
        assert {"witness_curve", "allocation", "local_solution"} <= set(kinds)

    def test_allocation_sums_to_at_most_rho_t(self, result, small_center_instance):
        assert sum(result.metadata["t_allocated"]) <= 2 * small_center_instance.t

    def test_site_time_recorded(self, result):
        assert result.site_time_max > 0


class TestAlgorithm2Quality:
    def test_constant_factor_vs_reference(self, small_center_instance, small_metric):
        result = distributed_partial_center(small_center_instance, rng=0)
        realized = evaluate_centers(
            small_metric, result.centers, result.outlier_budget, objective="center"
        )
        reference = centralized_reference(
            small_metric, small_center_instance.k, small_center_instance.t, objective="center"
        )
        assert realized.cost <= 4.0 * reference.cost + 1e-9

    def test_radius_far_below_no_outlier_radius(self, small_center_instance, small_metric):
        # Ignoring t points must shrink the radius dramatically on a workload
        # with planted far-away outliers.
        result = distributed_partial_center(small_center_instance, rng=0)
        with_outliers = evaluate_centers(
            small_metric, result.centers, small_center_instance.t, objective="center"
        ).cost
        without = evaluate_centers(small_metric, result.centers, 0, objective="center").cost
        assert with_outliers < 0.5 * without

    def test_adversarial_outlier_placement(self, small_metric, small_workload):
        # All planted outliers on one site: the allocation must send most of
        # the budget there.
        shards = partition_outliers_concentrated(small_workload.outlier_mask, 3, rng=5)
        instance = DistributedInstance.from_partition(small_metric, shards, 3, 15, "center")
        result = distributed_partial_center(instance, rng=0)
        t_alloc = result.metadata["t_allocated"]
        assert t_alloc[0] >= max(t_alloc[1:])
        realized = evaluate_centers(small_metric, result.centers, 15, objective="center")
        reference = centralized_reference(small_metric, 3, 15, objective="center")
        assert realized.cost <= 4.0 * reference.cost + 1e-9

    def test_deterministic_given_seed(self, small_center_instance):
        a = distributed_partial_center(small_center_instance, rng=3)
        b = distributed_partial_center(small_center_instance, rng=3)
        assert np.array_equal(a.centers, b.centers)


class TestAlgorithm2Validation:
    def test_median_instance_rejected(self, small_instance):
        with pytest.raises(ValueError):
            distributed_partial_center(small_instance)

    def test_bad_rho(self, small_center_instance):
        with pytest.raises(ValueError):
            distributed_partial_center(small_center_instance, rho=0.5)


class TestContiguousMatrixSites:
    """Site sweeps over a matrix-backed metric are read-only views of it.

    A site holding one contiguous run of a matrix-backed metric (and every
    site holding a compact block) traverses it through read-only views; the
    run must not write into them.
    """

    @pytest.mark.parametrize(
        "shards",
        [[np.arange(60)], [np.arange(30), np.arange(30, 60)]],
        ids=["one_site", "two_halves"],
    )
    def test_graph_metric(self, shards):
        metric = weighted_graph_metric(60, seed=3)
        before = metric.full_matrix().copy()
        instance = DistributedInstance.from_partition(metric, shards, 3, 4, "center")
        result = distributed_partial_center(instance, rng=0)
        assert result.rounds == 2
        assert result.centers.size >= 1
        np.testing.assert_array_equal(metric.full_matrix(), before)

    def test_matrix_metric_single_site(self, small_metric):
        metric = MatrixMetric(small_metric.full_matrix())
        n = len(metric)
        euclid = DistributedInstance.from_partition(small_metric, [np.arange(n)], 3, 15, "center")
        matrix = DistributedInstance.from_partition(metric, [np.arange(n)], 3, 15, "center")
        expected = distributed_partial_center(euclid, rng=0)
        result = distributed_partial_center(matrix, rng=0)
        np.testing.assert_array_equal(result.centers, expected.centers)
        assert result.cost == expected.cost
        np.testing.assert_array_equal(result.outliers, expected.outliers)
