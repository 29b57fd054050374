"""High-level drivers over raw numpy arrays.

These are the functions a downstream user calls first: hand them a point
cloud (or an :class:`repro.uncertain.UncertainInstance`), the budgets
``(k, t)`` and a site count, and they take care of building the metric,
partitioning the data and running the appropriate distributed protocol.
Everything they do can also be done explicitly through the lower-level
modules (see ``examples/``).

Every driver forwards its extra keyword arguments unchanged to the protocol
driver it wraps: that driver's own algorithm parameters, and the run
options documented once on :func:`repro.core.run.protocol_run`.
"""

from __future__ import annotations

from typing import Any, Sequence, Union

import numpy as np

from repro.core.algorithm1 import distributed_partial_median
from repro.core.algorithm2_center import distributed_partial_center
from repro.core.algorithm3_uncertain import distributed_uncertain_clustering
from repro.core.center_g import distributed_uncertain_center_g
from repro.distributed.instance import DistributedInstance, UncertainDistributedInstance
from repro.distributed.partition import (
    partition_balanced,
    partition_dirichlet,
    partition_round_robin,
)
from repro.distributed.result import DistributedResult
from repro.metrics.euclidean import EuclideanMetric
from repro.uncertain.instance import UncertainInstance
from repro.utils.rng import RngLike, ensure_rng

_PARTITIONERS = {
    "balanced": partition_balanced,
    "round_robin": partition_round_robin,
    "dirichlet": partition_dirichlet,
}


def _make_partition(n: int, n_sites: int, partition, rng) -> list:
    """Resolve a partition spec (name, explicit shards, or callable) into shards."""
    if callable(partition):
        return partition(n, n_sites, rng)
    if isinstance(partition, str):
        try:
            maker = _PARTITIONERS[partition]
        except KeyError as exc:
            raise ValueError(
                f"unknown partition {partition!r}; choose from {sorted(_PARTITIONERS)}"
            ) from exc
        return maker(n, n_sites, rng=rng)
    # Explicit shards were supplied.
    return [np.asarray(p, dtype=int) for p in partition]


def _deterministic_instance(
    points: np.ndarray,
    k: int,
    t: int,
    n_sites: int,
    objective: str,
    partition,
    rng,
) -> DistributedInstance:
    metric = EuclideanMetric(np.asarray(points, dtype=float))
    shards = _make_partition(len(metric), n_sites, partition, rng)
    return DistributedInstance.from_partition(metric, shards, k, t, objective)


def partial_kmedian(
    points: np.ndarray,
    k: int,
    t: int,
    *,
    n_sites: int = 4,
    epsilon: float = 0.5,
    rho: float = 2.0,
    partition: Union[str, Sequence, callable] = "balanced",
    seed: RngLike = None,
    **options: Any,
) -> DistributedResult:
    """Distributed ``(k, (1+eps)t)``-median over a Euclidean point cloud.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates.
    k, t:
        Number of centers and outlier budget.
    n_sites:
        Number of simulated sites ``s``.
    epsilon:
        Outlier-budget relaxation (approximation is ``O(1 + 1/epsilon)``).
    partition:
        ``"balanced"`` (default), ``"round_robin"``, ``"dirichlet"``, an
        explicit list of index arrays, or a callable ``(n, s, rng) -> shards``.
    seed:
        Seed or generator for reproducibility.
    options:
        Forwarded to :func:`repro.core.algorithm1.distributed_partial_median`:
        its algorithm parameters (``relax=``, ``local_solver_kwargs=``, ...)
        and the run options of :func:`repro.core.run.protocol_run`.
    """
    generator = ensure_rng(seed)
    instance = _deterministic_instance(points, k, t, n_sites, "median", partition, generator)
    return distributed_partial_median(
        instance, epsilon=epsilon, rho=rho, rng=generator, **options
    )


def partial_kmeans(
    points: np.ndarray,
    k: int,
    t: int,
    *,
    n_sites: int = 4,
    epsilon: float = 0.5,
    rho: float = 2.0,
    partition: Union[str, Sequence, callable] = "balanced",
    seed: RngLike = None,
    **options: Any,
) -> DistributedResult:
    """Distributed ``(k, (1+eps)t)``-means over a Euclidean point cloud.

    Same interface as :func:`partial_kmedian`; assignment costs are squared
    distances (Definition 1.1).
    """
    generator = ensure_rng(seed)
    instance = _deterministic_instance(points, k, t, n_sites, "means", partition, generator)
    return distributed_partial_median(
        instance, epsilon=epsilon, rho=rho, rng=generator, **options
    )


def partial_kcenter(
    points: np.ndarray,
    k: int,
    t: int,
    *,
    n_sites: int = 4,
    rho: float = 2.0,
    partition: Union[str, Sequence, callable] = "balanced",
    seed: RngLike = None,
    **options: Any,
) -> DistributedResult:
    """Distributed ``(k, t)``-center over a Euclidean point cloud (Algorithm 2).

    Same interface as :func:`partial_kmedian`; ``options`` go to
    :func:`repro.core.algorithm2_center.distributed_partial_center`.
    """
    generator = ensure_rng(seed)
    instance = _deterministic_instance(points, k, t, n_sites, "center", partition, generator)
    return distributed_partial_center(instance, rho=rho, rng=generator, **options)


def _node_partition(n_nodes: int, n_sites: int, partition, rng) -> list:
    return _make_partition(n_nodes, n_sites, partition, rng)


def uncertain_partial_kmedian(
    instance: UncertainInstance,
    k: int,
    t: int,
    *,
    objective: str = "median",
    n_sites: int = 4,
    epsilon: float = 0.5,
    rho: float = 2.0,
    partition: Union[str, Sequence, callable] = "balanced",
    seed: RngLike = None,
    **options: Any,
) -> DistributedResult:
    """Distributed uncertain ``(k, (1+eps)t)``-median/means/center-pp (Algorithm 3).

    Parameters
    ----------
    instance:
        The uncertain input (ground metric + node distributions).
    objective:
        ``"median"`` (default), ``"means"`` or ``"center"`` (center-pp).
    options:
        Forwarded to
        :func:`repro.core.algorithm3_uncertain.distributed_uncertain_clustering`;
        the other parameters are as in :func:`partial_kmedian`.
    """
    generator = ensure_rng(seed)
    shards = _node_partition(instance.n_nodes, n_sites, partition, generator)
    dist_instance = UncertainDistributedInstance.from_partition(instance, shards, k, t, objective)
    return distributed_uncertain_clustering(
        dist_instance, epsilon=epsilon, rho=rho, rng=generator, **options
    )


def uncertain_partial_kcenter_g(
    instance: UncertainInstance,
    k: int,
    t: int,
    *,
    n_sites: int = 4,
    epsilon: float = 0.5,
    rho: float = 2.0,
    partition: Union[str, Sequence, callable] = "balanced",
    seed: RngLike = None,
    **options: Any,
) -> DistributedResult:
    """Distributed uncertain ``(k, (1+eps)t)``-center-g (Algorithm 4).

    Same interface as :func:`uncertain_partial_kmedian`; ``options`` go to
    :func:`repro.core.center_g.distributed_uncertain_center_g`.
    """
    generator = ensure_rng(seed)
    shards = _node_partition(instance.n_nodes, n_sites, partition, generator)
    dist_instance = UncertainDistributedInstance.from_partition(instance, shards, k, t, "center-g")
    return distributed_uncertain_center_g(
        dist_instance, epsilon=epsilon, rho=rho, rng=generator, **options
    )


__all__ = [
    "partial_kmedian",
    "partial_kmeans",
    "partial_kcenter",
    "uncertain_partial_kmedian",
    "uncertain_partial_kcenter_g",
]
