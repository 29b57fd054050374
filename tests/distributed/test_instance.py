"""Tests for DistributedInstance and UncertainDistributedInstance."""

import numpy as np
import pytest

from repro.distributed import DistributedInstance, UncertainDistributedInstance


class TestDistributedInstance:
    def test_basic_properties(self, small_instance, small_workload):
        assert small_instance.n_sites == 3
        assert small_instance.n_points == small_workload.n_points
        assert small_instance.site_sizes.sum() == small_workload.n_points

    def test_overlapping_shards_rejected(self, small_metric):
        with pytest.raises(ValueError):
            DistributedInstance.from_partition(small_metric, [[0, 1, 2], [2, 3]], 1, 0)

    def test_empty_shard_rejected(self, small_metric):
        with pytest.raises(ValueError):
            DistributedInstance.from_partition(small_metric, [[0, 1], []], 1, 0)

    def test_no_sites_rejected(self, small_metric):
        with pytest.raises(ValueError):
            DistributedInstance(metric=small_metric, shards=[], k=1, t=0)

    def test_k_t_validated(self, small_metric):
        with pytest.raises(ValueError):
            DistributedInstance.from_partition(small_metric, [[0, 1], [2, 3]], 10, 0)

    def test_out_of_range_indices_rejected(self, small_metric):
        n = len(small_metric)
        with pytest.raises(IndexError):
            DistributedInstance.from_partition(small_metric, [[0, 1], [n + 5]], 1, 0)

    def test_words_per_point(self, small_instance):
        assert small_instance.words_per_point() == 2  # 2-D Euclidean data


class TestUncertainDistributedInstance:
    def test_basic_properties(self, small_uncertain_workload):
        inst = small_uncertain_workload.instance
        shards = [np.arange(0, 20), np.arange(20, 40), np.arange(40, inst.n_nodes)]
        dist = UncertainDistributedInstance.from_partition(inst, shards, 3, 6)
        assert dist.n_sites == 3
        assert dist.n_nodes == inst.n_nodes
        assert dist.ground_metric is inst.ground_metric
        assert dist.words_per_point() == 2
        assert dist.node_words() > 2

    def test_disjointness_enforced(self, small_uncertain_workload):
        inst = small_uncertain_workload.instance
        with pytest.raises(ValueError):
            UncertainDistributedInstance.from_partition(inst, [[0, 1], [1, 2]], 1, 0)

    def test_node_range_enforced(self, small_uncertain_workload):
        inst = small_uncertain_workload.instance
        with pytest.raises(ValueError):
            UncertainDistributedInstance.from_partition(inst, [[0], [inst.n_nodes]], 1, 0)

    def test_empty_shard_rejected(self, small_uncertain_workload):
        inst = small_uncertain_workload.instance
        with pytest.raises(ValueError):
            UncertainDistributedInstance.from_partition(inst, [[0, 1], []], 1, 0)
