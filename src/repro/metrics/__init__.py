"""Metric-space substrate.

Everything in the library works against the small :class:`MetricSpace`
interface: points are integer indices, and distances are produced either one
pair at a time or as vectorised blocks.  Concrete implementations cover

* :class:`EuclideanMetric` — points in R^d (the paper's canonical example),
* :class:`MatrixMetric` — an explicit pairwise distance matrix,
* :class:`GraphMetric` — shortest-path distances on a weighted graph.

:class:`CompressedGraph` is the clique-with-tentacles graph of Definition 5.2
used to cluster uncertain data; its demand-to-facility costs are not
symmetric, so it is a cost source rather than a metric.

The truncated distance ``L_tau`` of Definition 5.7 is not a metric, so it
has no class here: the center-g protocol reads its expected form
``rho_tau`` from
:meth:`repro.uncertain.UncertainNode.expected_truncated_distances`.

:mod:`repro.metrics.blocked` adds the memory discipline: blocked iteration
and reductions over any metric (or explicit cost matrix) under a byte
budget, with every tile sized by one rule (:func:`effective_tile_bytes`),
plus disk-backed :class:`MemmapCostShard` spill for matrices that must
outlive the budget.  :mod:`repro.metrics.plan` adds the scheduling on top:
:class:`ReductionPlan` fuses several reductions into one streaming pass.
All blocked and fused results are bit-identical to the dense path.
"""

from repro.metrics.base import MetricSpace, SubsetMetric
from repro.metrics.blocked import (
    DEFAULT_CACHE_TARGET,
    DEFAULT_REDUCTION_BUDGET,
    MemmapCostShard,
    argmin_per_row,
    count_within,
    effective_tile_bytes,
    iter_blocks,
    materialize,
    materialize_rows,
    read_block,
    reduce_max,
    reduce_min_positive,
    resolve_memory_budget,
)
from repro.metrics.plan import PlanStats, ReductionPlan
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.matrix import MatrixMetric
from repro.metrics.graph import GraphMetric
from repro.metrics.compressed_graph import CompressedGraph
from repro.metrics.cost_matrix import build_cost_matrix

__all__ = [
    "MetricSpace",
    "SubsetMetric",
    "DEFAULT_REDUCTION_BUDGET",
    "MemmapCostShard",
    "argmin_per_row",
    "count_within",
    "iter_blocks",
    "materialize",
    "materialize_rows",
    "read_block",
    "reduce_max",
    "reduce_min_positive",
    "resolve_memory_budget",
    "DEFAULT_CACHE_TARGET",
    "PlanStats",
    "ReductionPlan",
    "effective_tile_bytes",
    "EuclideanMetric",
    "MatrixMetric",
    "GraphMetric",
    "CompressedGraph",
    "build_cost_matrix",
]
