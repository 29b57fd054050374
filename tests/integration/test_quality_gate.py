"""Approximation quality against exact optima, and the paper's per-run bounds.

Each protocol runs on 16 points in R^2 (14 inliers in 2 clusters, 2 planted
outliers) split over 2 sites, with k = 2, t = 2 and eps = 0.5.  The gate
reads only the realized cost of the returned centers
(:func:`repro.analysis.evaluate_centers` with the protocol's outlier budget),
never ``result.cost``, which is the coordinator's cost on the weighted
instance it solved.  The fair ratio divides it by the exact OPT(k, budget)
from :mod:`tests.oracle.exact` at the same budget: floor((1 + eps) t) = 3
points for median and means (Theorem 3.1's bicriteria relaxation), t for
center.
"""

import math

import pytest

from repro.analysis import evaluate_centers
from repro.core import distributed_partial_center, distributed_partial_median
from repro.data import gaussian_mixture_with_outliers
from repro.distributed import DistributedInstance, partition_balanced
from tests.oracle.exact import exact_opt

K, T, EPSILON = 2, 2, 0.5
SEEDS = range(12)
#: Largest fair ratio measured over ``SEEDS`` (median / max over the seeds:
#: median 1.02 / 1.146, means 1.02 / 1.419, center 1.41 / 1.714).  The gate
#: fails a ratio more than 10% above it.
MEASURED_MAX = {"median": 1.146, "means": 1.419, "center": 1.714}
OUTLIER_LIMIT = {"median": math.ceil((1 + EPSILON) * T), "means": math.ceil((1 + EPSILON) * T),
                 "center": T}


def _run(objective, seed):
    workload = gaussian_mixture_with_outliers(
        n_inliers=14, n_outliers=2, n_clusters=2, dim=2, rng=seed
    )
    metric = workload.to_metric()
    shards = partition_balanced(workload.n_points, 2, rng=seed)
    instance = DistributedInstance.from_partition(metric, shards, K, T, objective)
    if objective == "center":
        return metric, distributed_partial_center(instance, rng=seed)
    return metric, distributed_partial_median(instance, epsilon=EPSILON, rng=seed)


@pytest.mark.parametrize("objective", ["median", "means", "center"])
def test_fair_ratio_within_gate(objective):
    failures = []
    for seed in SEEDS:
        metric, result = _run(objective, seed)
        budget = result.outlier_budget
        realized = evaluate_centers(metric, result.centers, budget, objective=objective).cost
        opt, _ = exact_opt(metric, K, budget, objective)
        ratio = realized / opt
        assert result.rounds == 2, (seed, result.rounds)
        assert result.outliers.size <= OUTLIER_LIMIT[objective], (seed, result.outliers)
        # No center set beats the exact optimum at the same budget.
        assert ratio >= 1.0 - 1e-9, (seed, realized, opt)
        if ratio > 1.1 * MEASURED_MAX[objective]:
            failures.append(f"seed {seed}: {ratio:.3f}")
    assert not failures, (
        f"{objective} fair ratio above 1.1 x {MEASURED_MAX[objective]}: " + ", ".join(failures)
    )
