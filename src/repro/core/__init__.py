"""The paper's primary contribution: communication-efficient distributed partial clustering.

* :mod:`repro.core.convex_hull` — lower convex hulls of local cost curves
  (the ``f_i`` functions of Algorithm 1).
* :mod:`repro.core.allocation` — the outlier-budget split across sites via
  stable rank selection on marginal gains (Lemmas 3.3/3.4).
* :mod:`repro.core.preclustering` — site-local preclustering (geometric grid
  of local solves, Gonzalez witnesses).
* :mod:`repro.core.algorithm1` — Algorithm 1: distributed ``(k, (1+eps)t)``-
  median/means, ``Õ((sk + t) B)`` communication, 2 rounds.
* :mod:`repro.core.algorithm1_modified` — Theorem 3.8: the no-outlier-shipping
  variant with ``Õ(s/delta + s k B)`` communication.
* :mod:`repro.core.algorithm2_center` — Algorithm 2: distributed ``(k, t)``-center.
* :mod:`repro.core.algorithm3_uncertain` — Algorithm 3: the compressed-graph
  scheme for uncertain median/means/center-pp.
* :mod:`repro.core.center_g` — Algorithm 4: uncertain ``(k, t)``-center-g via
  truncated distances and the parametric search on ``tau``.
* :mod:`repro.core.subquadratic` — Theorem 3.10: sub-quadratic centralized
  ``(k, t)``-median/means by sequential simulation.
* :mod:`repro.core.api` — convenience drivers over raw numpy point arrays.
* :mod:`repro.core.run` — the run harness every driver shares; its
  :func:`~repro.core.run.protocol_run` documents the run options.
"""

from repro.core.convex_hull import CostProfile, lower_convex_hull
from repro.core.allocation import (
    AllocationResult,
    allocate_outlier_budget,
)
from repro.core.preclustering import geometric_grid, SitePreclustering, precluster_site
from repro.core.algorithm1 import distributed_partial_median
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping
from repro.core.algorithm2_center import distributed_partial_center
from repro.core.algorithm3_uncertain import distributed_uncertain_clustering
from repro.core.center_g import distributed_uncertain_center_g
from repro.core.subquadratic import subquadratic_partial_clustering
from repro.core.api import (
    partial_kmedian,
    partial_kmeans,
    partial_kcenter,
    uncertain_partial_kmedian,
    uncertain_partial_kcenter_g,
)

__all__ = [
    "CostProfile",
    "lower_convex_hull",
    "AllocationResult",
    "allocate_outlier_budget",
    "geometric_grid",
    "SitePreclustering",
    "precluster_site",
    "distributed_partial_median",
    "distributed_partial_median_no_shipping",
    "distributed_partial_center",
    "distributed_uncertain_clustering",
    "distributed_uncertain_center_g",
    "subquadratic_partial_clustering",
    "partial_kmedian",
    "partial_kmeans",
    "partial_kcenter",
    "uncertain_partial_kmedian",
    "uncertain_partial_kcenter_g",
]
