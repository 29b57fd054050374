"""Synthetic workload generators.

The paper's algorithms are evaluated on point sets with planted cluster
structure and planted outliers (the regime the partial objectives are
designed for), plus uncertain-node workloads for Section 5.  All generators
return both the data and the ground-truth labels so the analysis layer can
report outlier-recovery statistics in addition to objective values.
"""

from repro.data.gaussian import (
    GaussianWorkload,
    gaussian_mixture_with_outliers,
)
from repro.data.uncertain_workloads import (
    UncertainWorkload,
    uncertain_nodes_from_mixture,
)

__all__ = [
    "GaussianWorkload",
    "gaussian_mixture_with_outliers",
    "UncertainWorkload",
    "uncertain_nodes_from_mixture",
]
