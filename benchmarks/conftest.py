"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper (see the
experiment index in ``DESIGN.md``): it measures wall-clock time through
pytest-benchmark *and* records the quantities the paper actually reports
(approximation ratios, communication words, rounds, per-party times) in
``benchmark.extra_info``, so each row of that index can be read back from
the saved benchmark JSON or from the printed tables (run with ``-s``).
"""

from __future__ import annotations

import pytest

from repro.data import gaussian_mixture_with_outliers, uncertain_nodes_from_mixture


def pytest_configure(config):
    # Benchmarks are part of the default testpaths (pyproject.toml) and run
    # with the regular suite; deselect with `pytest tests` when iterating.
    config.addinivalue_line("markers", "paper_experiment(id): maps a benchmark to a paper table/figure")


@pytest.fixture(scope="session")
def bench_workload():
    """Medium deterministic workload shared by the Table 1 benchmarks.

    1200 inlier points in 4 clusters plus 60 planted outliers, 2-D.
    """
    return gaussian_mixture_with_outliers(
        n_inliers=1200, n_outliers=60, n_clusters=4, dim=2,
        separation=14.0, cluster_std=1.0, rng=20170607,
    )


@pytest.fixture(scope="session")
def bench_metric(bench_workload):
    """Euclidean metric over the shared benchmark workload."""
    return bench_workload.to_metric()


@pytest.fixture(scope="session")
def bench_uncertain_workload():
    """Uncertain workload shared by the Table 1 uncertain-row benchmarks."""
    return uncertain_nodes_from_mixture(
        n_nodes=108, n_outlier_nodes=12, n_clusters=3,
        ground_size=320, support_size=6, rng=20170608,
    )
