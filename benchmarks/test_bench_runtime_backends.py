"""Runtime backends — wall-clock scaling of site-local computation.

The coordinator model is embarrassingly parallel across sites: site time is
``Õ(n_i^2)`` per round and every site is independent, so with ``w`` workers
the per-round site phase should drop from ``sum_i n_i^2`` towards
``max_i n_i^2``.  This benchmark runs Algorithm 1 on one large multi-site
instance under every execution backend and reports wall-clock, verifying
that results (centers, cost, ledger words) are identical along the way.

On a multi-core machine a warm cluster pool must beat serial wall-clock;
on a single-core container there is nothing to parallelise onto, so the
speedup assertion is skipped there (the parity assertions always run).
The core count that gates the assertion is the *effective* one — the
scheduler affinity mask, not ``os.cpu_count()`` — so an affinity-limited box
(e.g. a 1-of-64-cores CI container) cannot be asked to show speedup it
physically cannot produce.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.harness import record_rows
from repro.core import distributed_partial_median
from repro.data import gaussian_mixture_with_outliers
from repro.distributed import DistributedInstance, partition_balanced
from repro.runtime import effective_cpu_count, resolve_backend
from tests.helpers import run_site_round

BACKENDS = ["serial", "cluster"]

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def runtime_instance():
    """A large multi-site instance: 8 sites x ~400 points each.

    Site-local preclustering is quadratic in ``n_i``, so this is big enough
    for the per-site work to dwarf the runtime's dispatch overhead.
    """
    workload = gaussian_mixture_with_outliers(
        n_inliers=3120, n_outliers=80, n_clusters=5, dim=2,
        separation=16.0, cluster_std=1.0, rng=20170609,
    )
    metric = workload.to_metric()
    shards = partition_balanced(workload.n_points, 8, rng=3)
    return DistributedInstance.from_partition(metric, shards, 4, 80, "median")


def _run(instance, backend):
    return distributed_partial_median(instance, epsilon=0.5, rng=11, backend=backend)


def speedup_guard_verdict(n_cores: int, walls: dict, relaxed: bool = False) -> str:
    """Decide what the speedup assertion should do on this box.

    Pure function of (effective cores, wall-clocks, relaxed flag) so the
    guard itself stays testable on a 1-core container, where the live
    benchmark can only ever exercise the skip path: ``"skip-cores"`` when
    the affinity mask leaves nothing to parallelise onto, ``"pass"`` when the
    cluster pool beat serial, ``"skip-relaxed"`` when
    ``REPRO_RELAXED_SPEEDUP`` excuses a shared runner that showed no
    speedup, and ``"fail"`` otherwise.
    """
    if n_cores < 2:
        return "skip-cores"
    if walls["cluster"] < walls["serial"]:
        return "pass"
    return "skip-relaxed" if relaxed else "fail"


@pytest.mark.paper_experiment("runtime-backends")
def test_runtime_backend_speedup(benchmark, runtime_instance):
    """Parallel site execution beats serial wall-clock at large n, s (given cores)."""
    n_cores = effective_cpu_count()
    results = {}
    walls = {}
    for name in BACKENDS:
        backend = resolve_backend(name)
        try:
            if name != "serial":
                # Warm the pool with one no-op site round so runner startup is
                # not billed to the protocol.
                run_site_round(backend, abs, [0] * backend.n_hosts)
            start = time.perf_counter()
            results[name] = _run(runtime_instance, backend)
            walls[name] = time.perf_counter() - start
        finally:
            backend.close()

    # Re-run serial under the benchmark fixture for the recorded timing.
    benchmark.pedantic(_run, args=(runtime_instance, "serial"), rounds=1, iterations=1)

    base = results["serial"]
    rows = []
    for name in BACKENDS:
        result = results[name]
        np.testing.assert_array_equal(base.centers, result.centers)
        assert base.cost == result.cost
        assert base.ledger.total_words() == result.ledger.total_words()
        rows.append(
            {
                "backend": name,
                "wall_s": walls[name],
                "speedup_vs_serial": walls["serial"] / walls[name],
                "site_time_sum_s": sum(result.site_time.values()),
                "cost": result.cost,
                "total_words": result.total_words,
            }
        )
    rows.append({"backend": f"(cores={n_cores})", "wall_s": "", "speedup_vs_serial": "",
                 "site_time_sum_s": "", "cost": "", "total_words": ""})
    record_rows(
        benchmark, "runtime-backends", rows,
        title="Execution backends: identical results, wall-clock scaling",
    )

    verdict = speedup_guard_verdict(
        n_cores, walls, relaxed=bool(os.environ.get("REPRO_RELAXED_SPEEDUP"))
    )
    if verdict == "skip-cores":
        pytest.skip(f"only {n_cores} core available; speedup needs real parallelism")
    if verdict == "skip-relaxed":
        # Shared CI runners have noisy neighbours and few real cores; there
        # the speedup is reported but not enforced.
        pytest.skip(f"relaxed mode: no speedup observed on {n_cores} cores: {walls}")
    assert verdict == "pass", (
        f"expected the cluster pool to beat serial on {n_cores} cores: {walls}"
    )


class TestSpeedupGuard:
    """The guard's decision table, exercised even where the benchmark skips."""

    FAST_PARALLEL = {"serial": 2.0, "cluster": 1.5}
    NO_SPEEDUP = {"serial": 1.0, "cluster": 1.3}

    def test_single_core_skips_regardless_of_timings(self):
        assert speedup_guard_verdict(1, self.FAST_PARALLEL) == "skip-cores"

    def test_parallel_win_passes(self):
        assert speedup_guard_verdict(4, self.FAST_PARALLEL) == "pass"

    def test_no_speedup_fails_unless_relaxed(self):
        assert speedup_guard_verdict(4, self.NO_SPEEDUP) == "fail"
        assert speedup_guard_verdict(4, self.NO_SPEEDUP, relaxed=True) == "skip-relaxed"

    def test_mocked_affinity_feeds_the_guard(self, monkeypatch):
        # The guard must see the affinity mask, not the host's core count:
        # a 64-core host pinned to one CPU takes the skip path, and widening
        # the mask (no hardware change) flips it to enforcement.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        assert effective_cpu_count() == 1
        assert (
            speedup_guard_verdict(effective_cpu_count(), self.FAST_PARALLEL)
            == "skip-cores"
        )
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        assert effective_cpu_count() == 8
        assert (
            speedup_guard_verdict(effective_cpu_count(), self.NO_SPEEDUP) == "fail"
        )
