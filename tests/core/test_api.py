"""Tests for the high-level numpy-array drivers."""

import numpy as np
import pytest

from repro import (
    partial_kcenter,
    partial_kmeans,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.cluster import RetryPolicy


class TestDeterministicDrivers:
    def test_kmedian(self, small_workload):
        result = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=0)
        assert result.objective == "median"
        assert result.rounds == 2
        assert result.n_centers <= 3

    def test_kmeans(self, small_workload):
        result = partial_kmeans(small_workload.points, 3, 15, n_sites=3, seed=0)
        assert result.objective == "means"

    def test_kcenter(self, small_workload):
        result = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=0)
        assert result.objective == "center"
        assert result.outlier_budget == 15

    def test_partition_names(self, small_workload):
        for name in ("balanced", "round_robin", "dirichlet"):
            result = partial_kmedian(small_workload.points, 3, 15, n_sites=3, partition=name, seed=0)
            assert result.rounds == 2

    def test_explicit_partition(self, small_workload):
        n = small_workload.n_points
        shards = [np.arange(0, n // 2), np.arange(n // 2, n)]
        result = partial_kmedian(small_workload.points, 3, 15, n_sites=2, partition=shards, seed=0)
        assert len(result.metadata["t_allocated"]) == 2

    def test_callable_partition(self, small_workload):
        def halves(n, s, rng=None):
            return [np.arange(0, n // 2), np.arange(n // 2, n)]

        result = partial_kmedian(
            small_workload.points, 3, 15, n_sites=2, partition=halves, seed=0
        )
        assert len(result.metadata["t_allocated"]) == 2

    def test_unknown_partition_rejected(self, small_workload):
        with pytest.raises(ValueError):
            partial_kmedian(small_workload.points, 3, 15, partition="nope", seed=0)

    def test_seed_reproducibility(self, small_workload):
        a = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=5)
        b = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=5)
        assert np.array_equal(a.centers, b.centers)


class TestUncertainDrivers:
    def test_uncertain_kmedian(self, small_uncertain_workload):
        result = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=0
        )
        assert result.objective == "median"
        assert result.rounds == 2

    def test_uncertain_center_pp(self, small_uncertain_workload):
        result = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, objective="center", n_sites=3, seed=0
        )
        assert result.objective == "center"

    def test_uncertain_center_g(self, small_uncertain_workload):
        instance = small_uncertain_workload.instance.node_subset(np.arange(0, 30))
        result = uncertain_partial_kcenter_g(instance, 2, 3, n_sites=2, seed=0)
        assert result.objective == "center-g"
        assert result.rounds == 2


FRONT_DOORS = [
    partial_kmedian,
    partial_kmeans,
    partial_kcenter,
    uncertain_partial_kmedian,
    uncertain_partial_kcenter_g,
]


class TestRemovedKnobs:
    @pytest.mark.parametrize(
        "knob",
        [
            ("async_rounds", True), ("transport", "pickle"), ("telemetry", True),
            ("prefetch", False), ("retry", RetryPolicy(max_retries=1)),
            ("realize", False),
        ],
        ids=lambda knob: knob[0],
    )
    @pytest.mark.parametrize("driver", FRONT_DOORS, ids=lambda driver: driver.__name__)
    def test_removed_knob_raises(self, driver, knob, small_workload, small_uncertain_workload):
        if driver.__name__.startswith("uncertain"):
            data = small_uncertain_workload.instance
        else:
            data = small_workload.points
        name, value = knob
        with pytest.raises(TypeError, match=name):
            driver(data, 2, 3, n_sites=2, seed=0, **{name: value})
