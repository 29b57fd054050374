"""Sequential (single-machine) clustering substrate.

These are the building blocks the distributed algorithms call at sites and at
the coordinator:

* :func:`gonzalez` — farthest-first traversal (Gonzalez 1985), whose prefix of
  length ``r`` is a 2-approximation for ``r``-center; Algorithm 2 uses the
  traversal radii as its global witnesses.
* :func:`kcenter_with_outliers` — Charikar-et-al-style greedy disk cover for
  the weighted ``(k, t)``-center problem.
* :func:`local_search_partial` — outlier-aware weighted local-search solver
  for ``(k, t)``-median/means (the practical stand-in for the Theorem 3.1
  bicriteria black box; see DESIGN.md "Substitutions").
* :func:`bicriteria_solve` — the Theorem 3.1 interface: relax either the
  outlier budget to ``(1+eps) t`` or the center budget to ``(1+eps) k``.
* :mod:`repro.sequential.assignment` — nearest-center assignment with
  weighted outlier trimming, shared by everything above.
"""

from repro.sequential.solution import ClusterSolution
from repro.sequential.assignment import (
    assign_with_outliers,
    nearest_center_distances,
)
from repro.sequential.gonzalez import GonzalezResult, gonzalez
from repro.sequential.kcenter_outliers import kcenter_with_outliers
from repro.sequential.local_search import local_search_partial
from repro.sequential.bicriteria import bicriteria_solve

__all__ = [
    "ClusterSolution",
    "assign_with_outliers",
    "nearest_center_distances",
    "GonzalezResult",
    "gonzalez",
    "kcenter_with_outliers",
    "local_search_partial",
    "bicriteria_solve",
]
