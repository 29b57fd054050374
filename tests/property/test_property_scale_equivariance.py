"""Property: every protocol is equivariant under scaling the input by a power of two.

Multiplying every coordinate by ``2**j`` is exact in IEEE doubles, and so
is every distance computed from the scaled coordinates: each difference,
square, sum and square root is the unscaled one times ``2**j`` (``4**j``
before the root).  A protocol with no absolute threshold (a grid floor, a
distance epsilon) must therefore return the same centers, outliers, words
and realized assignment, and a cost scaled by exactly ``2**j``, or
``4**j`` for the means objective.  Covered: Algorithms 1 (median, means)
and 2, the variant that ships no outliers, Algorithm 3 (median, means,
center-pp) and center-g, at ``j`` in ``{1, -1, 10}``.
"""

import numpy as np
import pytest

from repro import (
    UncertainInstance,
    partial_kcenter,
    partial_kmeans,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.core import distributed_partial_median_no_shipping
from repro.data import gaussian_mixture_with_outliers, uncertain_nodes_from_mixture
from repro.distributed import DistributedInstance
from repro.metrics import EuclideanMetric

K, T, N_SITES = 3, 6, 3
EXPONENTS = (1, -1, 10)


def _no_shipping(points, seed):
    shards = np.array_split(np.arange(len(points)), N_SITES)
    instance = DistributedInstance.from_partition(
        EuclideanMetric(points), shards, K, T, "median"
    )
    return distributed_partial_median_no_shipping(instance, rng=seed)


#: name -> (run(points, seed), cost exponent per coordinate exponent)
POINT_PROTOCOLS = {
    "median": (lambda p, s: partial_kmedian(p, K, T, n_sites=N_SITES, seed=s), 1),
    "means": (lambda p, s: partial_kmeans(p, K, T, n_sites=N_SITES, seed=s), 2),
    "center": (lambda p, s: partial_kcenter(p, K, T, n_sites=N_SITES, seed=s), 1),
    "no_shipping": (_no_shipping, 1),
}

UNCERTAIN_PROTOCOLS = {
    "median": (lambda u, s: uncertain_partial_kmedian(u, K, 4, n_sites=N_SITES, seed=s), 1),
    "means": (lambda u, s: uncertain_partial_kmedian(
        u, K, 4, objective="means", n_sites=N_SITES, seed=s), 2),
    "center_pp": (lambda u, s: uncertain_partial_kmedian(
        u, K, 4, objective="center", n_sites=N_SITES, seed=s), 1),
    "center_g": (lambda u, s: uncertain_partial_kcenter_g(u, K, 4, n_sites=N_SITES, seed=s), 1),
}


def _assert_scaled(base, scaled, factor):
    np.testing.assert_array_equal(scaled.centers, base.centers)
    np.testing.assert_array_equal(scaled.outliers, base.outliers)
    assert scaled.ledger.total_words() == base.ledger.total_words()
    for key in ("realized_assignment", "node_assignment"):
        assert scaled.metadata.get(key) == base.metadata.get(key)
    assert scaled.cost == base.cost * factor, (scaled.cost, base.cost, factor)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(POINT_PROTOCOLS))
def test_point_protocols(name, seed):
    run, power = POINT_PROTOCOLS[name]
    points = gaussian_mixture_with_outliers(120, T, K, dim=2, rng=seed).points
    base = run(points, seed)
    for j in EXPONENTS:
        _assert_scaled(base, run(points * 2.0**j, seed), 2.0 ** (power * j))


@pytest.mark.parametrize("name", sorted(UNCERTAIN_PROTOCOLS))
def test_uncertain_protocols(name):
    run, power = UNCERTAIN_PROTOCOLS[name]
    instance = uncertain_nodes_from_mixture(36, 4, K, ground_size=120, rng=3).instance
    base = run(instance, 3)
    for j in EXPONENTS:
        scaled = UncertainInstance(
            EuclideanMetric(instance.ground_metric.points * 2.0**j), instance.nodes
        )
        _assert_scaled(base, run(scaled, 3), 2.0 ** (power * j))
