"""Tests for Algorithm 1 (distributed (k, (1+eps)t)-median/means)."""

import math

import numpy as np
import pytest

from repro.analysis import evaluate_centers
from repro.baselines import centralized_reference
from repro.core import distributed_partial_median
from repro.distributed import DistributedInstance, partition_balanced


@pytest.fixture(scope="module")
def result(small_instance):
    return distributed_partial_median(small_instance, epsilon=0.5, rng=0)


class TestAlgorithm1Structure:
    def test_two_rounds(self, result):
        assert result.rounds == 2
        assert result.ledger.n_rounds() == 2

    def test_k_centers(self, result, small_instance):
        assert 1 <= result.n_centers <= small_instance.k

    def test_centers_are_input_points(self, result, small_instance):
        assert np.all(result.centers >= 0)
        assert np.all(result.centers < small_instance.n_points)

    def test_outlier_budget(self, result, small_instance):
        expected = math.floor(1.5 * small_instance.t)
        assert result.outlier_budget == expected
        assert result.outliers.size <= expected

    def test_allocation_metadata(self, result, small_instance):
        t_alloc = result.metadata["t_allocated"]
        assert len(t_alloc) == small_instance.n_sites
        assert sum(t_alloc) <= 2 * small_instance.t  # rho * t with rho = 2
        assert all(ti >= 0 for ti in t_alloc)

    def test_message_kinds(self, result):
        kinds = result.ledger.words_by_kind()
        assert {"cost_profile", "allocation", "local_solution"} <= set(kinds)

    def test_round1_is_profiles_only(self, result):
        round1 = result.ledger.filter(round_index=1)
        assert all(m.kind == "cost_profile" for m in round1)

    def test_site_and_coordinator_times_recorded(self, result, small_instance):
        assert len(result.site_time) == small_instance.n_sites
        assert result.site_time_max > 0
        assert result.coordinator_time > 0


class TestAlgorithm1Communication:
    def test_words_scale_with_sk_plus_t(self, small_instance):
        result = distributed_partial_median(small_instance, epsilon=0.5, rng=0)
        s, k, t = small_instance.n_sites, small_instance.k, small_instance.t
        B = small_instance.words_per_point()
        # Generous constant: the point is the scale, not the constant.
        bound = 20 * (s * k + t) * B + 20 * s * np.log2(max(t, 2))
        assert result.total_words <= bound

    def test_cheaper_than_send_all(self, small_instance):
        from repro.baselines import send_all_protocol

        result = distributed_partial_median(small_instance, epsilon=0.5, rng=0)
        naive = send_all_protocol(small_instance, rng=0)
        assert result.total_words < naive.total_words


class TestAlgorithm1Quality:
    def test_constant_factor_vs_reference(self, small_instance, small_metric):
        result = distributed_partial_median(small_instance, epsilon=0.5, rng=0)
        realized = evaluate_centers(
            small_metric, result.centers, result.outlier_budget, objective="median"
        )
        reference = centralized_reference(
            small_metric, small_instance.k, small_instance.t, objective="median", rng=1
        )
        assert realized.cost <= 3.0 * reference.cost + 1e-9

    def test_finds_planted_outliers(self, small_instance, small_workload):
        result = distributed_partial_median(small_instance, epsilon=0.5, rng=0)
        planted = set(np.flatnonzero(small_workload.outlier_mask).tolist())
        found = set(result.outliers.tolist())
        assert len(found & planted) >= int(0.6 * len(planted))

    def test_epsilon_relaxation_grows_budget(self, small_instance):
        tight = distributed_partial_median(small_instance, epsilon=0.2, rng=0)
        loose = distributed_partial_median(small_instance, epsilon=1.0, rng=0)
        assert loose.outlier_budget > tight.outlier_budget

    def test_means_objective(self, small_metric, small_workload):
        shards = partition_balanced(small_workload.n_points, 3, rng=3)
        instance = DistributedInstance.from_partition(small_metric, shards, 3, 15, "means")
        result = distributed_partial_median(instance, epsilon=0.5, rng=0)
        assert result.objective == "means"
        realized = evaluate_centers(
            small_metric, result.centers, result.outlier_budget, objective="means"
        )
        reference = centralized_reference(small_metric, 3, 15, objective="means", rng=1)
        assert realized.cost <= 6.0 * reference.cost + 1e-9

    def test_deterministic_given_seed(self, small_instance):
        a = distributed_partial_median(small_instance, epsilon=0.5, rng=42)
        b = distributed_partial_median(small_instance, epsilon=0.5, rng=42)
        assert np.array_equal(a.centers, b.centers)
        assert a.total_words == b.total_words


class TestAlgorithm1Validation:
    def test_center_objective_rejected(self, small_center_instance):
        with pytest.raises(ValueError):
            distributed_partial_median(small_center_instance)

    def test_bad_epsilon(self, small_instance):
        with pytest.raises(ValueError):
            distributed_partial_median(small_instance, epsilon=0.0)

    def test_bad_rho(self, small_instance):
        with pytest.raises(ValueError):
            distributed_partial_median(small_instance, rho=1.0)

    def test_single_site(self, small_metric, small_workload):
        instance = DistributedInstance.from_partition(
            small_metric, [np.arange(small_workload.n_points)], 3, 15, "median"
        )
        result = distributed_partial_median(instance, epsilon=0.5, rng=0)
        assert result.n_centers <= 3
