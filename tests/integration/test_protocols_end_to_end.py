"""End-to-end comparisons of all deterministic protocols on a shared workload.

These tests tie the whole stack together: workload generation, partitioning,
the distributed protocols, the baselines and the analysis layer, checking the
*relationships* the paper claims (solution quality within constant factors of
each other, communication orderings, budget accounting) rather than any
single component in isolation.
"""

import numpy as np
import pytest

from repro.analysis import compare_results, evaluate_centers, summarize_result
from repro.baselines import centralized_reference, one_round_protocol, send_all_protocol
from repro.core import (
    distributed_partial_center,
    distributed_partial_median,
    distributed_partial_median_no_shipping,
)
from repro.data import gaussian_mixture_with_outliers
from repro.distributed import DistributedInstance, partition_balanced
from tests.workloads import partition_by_cluster


@pytest.fixture(scope="module")
def workload():
    return gaussian_mixture_with_outliers(
        n_inliers=260, n_outliers=24, n_clusters=4, separation=14.0, cluster_std=1.0, rng=99
    )


@pytest.fixture(scope="module")
def metric(workload):
    return workload.to_metric()


@pytest.fixture(scope="module")
def instance(workload, metric):
    shards = partition_balanced(workload.n_points, 4, rng=5)
    return DistributedInstance.from_partition(metric, shards, 4, 24, "median")


@pytest.fixture(scope="module")
def reference(metric):
    return centralized_reference(metric, 4, 24, objective="median", rng=17)


class TestMedianProtocolFamily:
    def test_all_protocols_within_constant_of_reference(self, instance, metric, reference):
        runs = {
            "algorithm1": distributed_partial_median(instance, epsilon=0.5, rng=0),
            "algorithm1_no_ship": distributed_partial_median_no_shipping(
                instance, epsilon=0.5, delta=0.5, rng=0
            ),
            "one_round": one_round_protocol(instance, rng=0),
            "send_all": send_all_protocol(instance, rng=0),
        }
        rows = compare_results(metric, runs, reference=reference)
        for row in rows:
            assert row["approx_ratio"] <= 3.0, row

    def test_communication_ordering(self, instance):
        alg1 = distributed_partial_median(instance, epsilon=0.5, rng=0)
        no_ship = distributed_partial_median_no_shipping(instance, epsilon=0.5, delta=0.5, rng=0)
        one_round = one_round_protocol(instance, rng=0)
        send_all = send_all_protocol(instance, rng=0)
        # no-shipping <= algorithm 1 <= one-round <= send-all on this regime.
        assert no_ship.total_words < alg1.total_words
        assert alg1.total_words < one_round.total_words
        assert one_round.total_words < send_all.total_words

    def test_round_counts(self, instance):
        assert distributed_partial_median(instance, rng=0).rounds == 2
        assert one_round_protocol(instance, rng=0).rounds == 1
        assert send_all_protocol(instance, rng=0).rounds == 1

    def test_outlier_budget_accounting(self, instance, workload):
        result = distributed_partial_median(instance, epsilon=0.5, rng=0)
        assert result.outliers.size <= result.outlier_budget
        # Every reported outlier is a real input point.
        assert np.all(result.outliers < workload.n_points)

    def test_cluster_aligned_partition_still_works(self, workload, metric, reference):
        # Hardest partition: sites see whole clusters, outliers spread around.
        shards = partition_by_cluster(workload.labels, 4, rng=3)
        instance = DistributedInstance.from_partition(metric, shards, 4, 24, "median")
        result = distributed_partial_median(instance, epsilon=0.5, rng=0)
        realized = evaluate_centers(metric, result.centers, result.outlier_budget, objective="median")
        assert realized.cost <= 3.0 * reference.cost


class TestCenterProtocolFamily:
    def test_center_within_constant_of_reference(self, workload, metric):
        shards = partition_balanced(workload.n_points, 4, rng=5)
        instance = DistributedInstance.from_partition(metric, shards, 4, 24, "center")
        result = distributed_partial_center(instance, rng=0)
        reference = centralized_reference(metric, 4, 24, objective="center")
        realized = evaluate_centers(metric, result.centers, 24, objective="center")
        assert realized.cost <= 4.0 * reference.cost

    def test_center_vs_one_round_communication(self, workload, metric):
        shards = partition_balanced(workload.n_points, 8, rng=5)
        instance = DistributedInstance.from_partition(metric, shards, 4, 24, "center")
        alg2 = distributed_partial_center(instance, rng=0)
        one_round = one_round_protocol(instance, rng=0)
        assert alg2.total_words < one_round.total_words


class TestSummaryPipeline:
    def test_summary_row_pipeline(self, instance, metric, reference, workload):
        result = distributed_partial_median(instance, epsilon=0.5, rng=0)
        row = summarize_result(
            metric,
            result,
            reference=reference,
            true_outliers=np.flatnonzero(workload.outlier_mask),
            label="alg1",
        )
        assert row["rounds"] == 2
        assert row["outlier_recall"] >= 0.5
        assert row["approx_ratio"] <= 3.0
