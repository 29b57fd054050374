"""Property tests: a realized output partitions the input.

Every protocol that names its outliers also realizes a per-point (or
per-node) assignment in its uncharged output step.  Each input id must be
in exactly one of the two: assigned to a center, or named an outlier.
Small random instances (12-40 points, 2-4 sites, k 1-3, t below n/2) make
sites whose local solve drops a center's own point, the case where a
center has no served members.  The point protocols also keep the paper's
bounds: at most ``outlier_budget`` outliers named, and two rounds (one for
the one-round baseline), on balanced sites, on sites where site 0 holds the
``t`` points farthest from the origin, and on sites cut from the points
sorted by x.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.one_round import one_round_protocol
from repro.core.algorithm1 import distributed_partial_median
from repro.core.algorithm2_center import distributed_partial_center
from repro.core.algorithm3_uncertain import distributed_uncertain_clustering
from repro.core.center_g import distributed_uncertain_center_g
from repro.data import uncertain_nodes_from_mixture
from repro.distributed import (
    DistributedInstance,
    UncertainDistributedInstance,
    partition_balanced,
    partition_outliers_concentrated,
)
from repro.metrics import EuclideanMetric

POINT_PROTOCOLS = {
    "median": (distributed_partial_median, "median"),
    "means": (distributed_partial_median, "means"),
    "center": (distributed_partial_center, "center"),
    "one_round_median": (one_round_protocol, "median"),
    "one_round_center": (one_round_protocol, "center"),
}


@st.composite
def sizes(draw):
    """``(n, n_sites, k, t, seed)`` of a small instance with ``t < n / 2``."""
    n = draw(st.integers(min_value=12, max_value=40))
    n_sites = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    t = draw(st.integers(min_value=1, max_value=n // 2 - 1))
    return n, n_sites, k, t, draw(st.integers(min_value=0, max_value=2**16))


def partition(family, points, n_sites, t, seed):
    n = len(points)
    if family == "skewed":
        farthest = np.argsort(-np.hypot(points[:, 0], points[:, 1]), kind="stable")[:t]
        return partition_outliers_concentrated(np.isin(np.arange(n), farthest), n_sites, rng=seed)
    if family == "cluster_aligned":
        by_x = np.argsort(points[:, 0], kind="stable")
        return [np.sort(shard) for shard in np.array_split(by_x, n_sites)]
    return partition_balanced(n, n_sites, rng=seed)


def assert_partitions(assignment, outliers, n):
    outliers = set(np.asarray(outliers).tolist())
    assert not set(assignment) & outliers
    assert set(assignment) | outliers == set(range(n))


@given(
    case=sizes(),
    protocol=st.sampled_from(sorted(POINT_PROTOCOLS)),
    family=st.sampled_from(["balanced", "skewed", "cluster_aligned"]),
)
@settings(max_examples=300, deadline=None)
def test_point_protocols_partition_the_input(case, protocol, family):
    n, n_sites, k, t, seed = case
    points = np.random.default_rng(seed).normal(scale=3.0, size=(n, 2))
    solve, objective = POINT_PROTOCOLS[protocol]
    instance = DistributedInstance.from_partition(
        EuclideanMetric(points), partition(family, points, n_sites, t, seed), k, t, objective
    )
    result = solve(instance, rng=seed)
    assert_partitions(result.metadata["realized_assignment"], result.outliers, n)
    assert len(result.outliers) <= result.outlier_budget
    assert result.rounds == (1 if protocol.startswith("one_round") else 2)


@given(case=sizes(), objective=st.sampled_from(["median", "means", "center", "center-g"]))
@settings(max_examples=16, deadline=None)
def test_uncertain_protocols_partition_the_nodes(case, objective):
    n, n_sites, k, t, seed = case
    workload = uncertain_nodes_from_mixture(n - 2, 2, 2, ground_size=60, rng=seed)
    instance = UncertainDistributedInstance.from_partition(
        workload.instance, partition_balanced(n, n_sites, rng=seed), k, t, objective
    )
    if objective == "center-g":
        result = distributed_uncertain_center_g(instance, rng=seed)
    else:
        result = distributed_uncertain_clustering(instance, rng=seed)
    assert_partitions(result.metadata["node_assignment"], result.outliers, n)
