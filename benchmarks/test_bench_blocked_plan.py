"""Fused reduction plans — pass counts, tile stats and wall-clock.

This is the first machine-readable entry in the perf trajectory: it measures
the fused k-center radius probe (one streaming pass seeds every radius guess
of a probe batch, the greedy then only re-reads newly covered rows) against
the classic phrasing (one full ``count_within`` stream per greedy step), and
writes ``BENCH_blocked_plan.json`` with the pass counts, the plan's tile
statistics and the measured wall-clock of both paths.  A second case
solves the same instance from a memmap shard under the budget and checks
it is bit-identical to the dense solve.

Pass counts come from :class:`~repro.metrics.plan.CountingSource`, so the
before/after *pass* ratio is deterministic and asserted; wall-clock numbers
are recorded for the trajectory but never asserted (the CI box is 1-core).

The JSON artifact is only (re)written when ``REPRO_BENCH_ARTIFACTS=1`` is
set — a plain test run (or CI under ``--benchmark-disable``, where the
timings would be meaningless zeros) never dirties the committed baseline::

    REPRO_BENCH_ARTIFACTS=1 pytest benchmarks/test_bench_blocked_plan.py
"""

import os
import time

import numpy as np
import pytest

from benchmarks.harness import record_rows, write_bench_json
from repro.data import gaussian_mixture_with_outliers
from repro.metrics.blocked import MemmapCostShard, count_within
from repro.metrics.plan import CountingSource, ReductionPlan
from repro.sequential import kcenter_with_outliers

K = 6
T = 40
BUDGET = 64 * 2**10  # 64 KiB: far below the matrix, so tiles genuinely stream
N_RADII = 4  # one probe batch


@pytest.fixture(scope="module")
def probe_workload():
    workload = gaussian_mixture_with_outliers(
        n_inliers=760, n_outliers=40, n_clusters=4, dim=2,
        separation=14.0, rng=20170727,
    )
    matrix = workload.to_metric().full_matrix()
    radii = np.quantile(matrix, np.linspace(0.15, 0.85, N_RADII))
    weights = np.ones(matrix.shape[0])
    return matrix, radii, weights


def _old_path_probe(matrix, radii, weights, k):
    """The pre-fusion radius probe: per radius, one initial gains pass plus
    one full gains re-stream on every greedy step (``k + 1`` passes)."""
    from repro.metrics.blocked import read_block

    n = matrix.shape[0]
    all_rows = np.arange(n)
    for radius in radii:
        remaining = weights.copy()
        count_within(matrix, float(radius), weights=remaining, memory_budget=BUDGET)
        for _ in range(k):
            if not np.any(remaining > 0):
                break
            gain = count_within(
                matrix, float(radius), weights=remaining, memory_budget=BUDGET
            )
            best = int(np.argmax(gain))
            column = read_block(matrix, all_rows, [best])[:, 0]
            remaining[column <= 3.0 * float(radius)] = 0.0


def _fused_probe(matrix, radii, weights, k):
    from repro.sequential.kcenter_outliers import _ByFacility, _greedy_cover

    facilities = _ByFacility(matrix, memory_budget=BUDGET)
    seeds = facilities.round_gains(radii, weights)
    for radius, gain in zip(radii, seeds):
        _greedy_cover(facilities, weights, k, float(radius), 3.0, gain)


@pytest.mark.paper_experiment("blocked_plan")
def test_fused_probe_pass_counts_and_wall_clock(benchmark, probe_workload):
    matrix, radii, weights = probe_workload
    n, m = matrix.shape

    # ------------------------------------------------------------------
    # Deterministic pass counts (asserted).
    # ------------------------------------------------------------------
    fused_src = CountingSource(matrix)
    _fused_probe(fused_src, radii, weights, K)
    fused_passes = fused_src.passes

    old_src = CountingSource(matrix)
    _old_path_probe(old_src, radii, weights, K)
    old_passes = old_src.passes

    # The fused probe seeds every radius from ONE pass; the old path pays
    # k + 1 passes per radius (plus the chosen columns, a rounding error).
    assert fused_passes < old_passes / 3
    assert old_passes >= N_RADII * K  # k re-streams per radius at minimum

    # Tile statistics of the fused gains plan itself.
    plan = ReductionPlan(matrix, memory_budget=BUDGET)
    plan.add_count_within(radii, weights=weights)
    plan.execute()
    assert plan.stats.passes == pytest.approx(1.0)

    # ------------------------------------------------------------------
    # Wall-clock (recorded, never asserted) — fused path through
    # pytest-benchmark, old path timed once for the before/after table.
    # ------------------------------------------------------------------
    start = time.perf_counter()
    _old_path_probe(matrix, radii, weights, K)
    old_seconds = time.perf_counter() - start

    benchmark.pedantic(
        _fused_probe, args=(matrix, radii, weights, K), rounds=3, iterations=1
    )
    fused_seconds = float(benchmark.stats.stats.mean) if benchmark.stats else 0.0

    rows = [
        {
            "path": "old (k+1 streams/radius)",
            "full_passes": round(old_passes, 2),
            "cells_read": old_src.cells_read,
            "wall_s": round(old_seconds, 4),
        },
        {
            "path": "fused plan + incremental",
            "full_passes": round(fused_passes, 2),
            "cells_read": fused_src.cells_read,
            "wall_s": round(fused_seconds, 4),
        },
    ]
    record_rows(
        benchmark, "blocked_plan_fused_probe", rows,
        columns=["path", "full_passes", "cells_read", "wall_s"],
        title=f"fused k-center radius probe (n={n}, m={m}, k={K}, {N_RADII} radii, budget=64KB)",
    )

    if os.environ.get("REPRO_BENCH_ARTIFACTS") != "1":
        return
    path = write_bench_json(
        "BENCH_blocked_plan.json",
        {
            "experiment": "blocked_plan_fused_probe",
            "workload": {"n": n, "m": m, "k": K, "t": T, "n_radii": N_RADII,
                         "memory_budget": BUDGET},
            "pass_counts": {
                "old_full_passes": old_passes,
                "fused_full_passes": fused_passes,
                "old_cells_read": old_src.cells_read,
                "fused_cells_read": fused_src.cells_read,
                "speedup_passes": old_passes / max(fused_passes, 1e-12),
            },
            "tile_stats": plan.stats.as_dict(),
            "wall_clock": {
                "old_seconds": old_seconds,
                "fused_seconds": fused_seconds,
            },
        },
    )
    benchmark.extra_info["artifact"] = path


@pytest.mark.paper_experiment("blocked_plan")
def test_fused_kcenter_memmap_parity(benchmark, probe_workload, tmp_path):
    """End-to-end fused solve on a memmap shard: parity + recorded wall-clock."""
    matrix, _, _ = probe_workload
    shard = MemmapCostShard.create(matrix.shape, workdir=str(tmp_path))
    shard.write_rows(slice(0, matrix.shape[0]), matrix)
    mm = shard.finalize()

    dense_sol = kcenter_with_outliers(matrix, K, T)

    def fused_run():
        return kcenter_with_outliers(mm, K, T, memory_budget=BUDGET, probe_batch=3)

    sol = benchmark.pedantic(fused_run, rounds=2, iterations=1)
    np.testing.assert_array_equal(dense_sol.centers, sol.centers)
    assert dense_sol.cost == sol.cost
    benchmark.extra_info["experiment"] = "blocked_plan_kcenter_memmap"
    benchmark.extra_info["probe_rounds"] = sol.metadata["probe_rounds"]
