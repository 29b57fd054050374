"""Fused radius probes for the Charikar ``(k, t)``-center greedy.

Two properties are locked down here:

* **Parity** — the fused/batched/incremental search is bit-identical across
  memory budgets, memmap-backed matrices and probe-batch sizes (the
  batched binary search lands on the same smallest feasible candidate
  radius as the one-at-a-time search under the analysis's monotonicity
  assumption).
* **Pass counts** — via :class:`~repro.metrics.plan.CountingSource`
  (deterministic; no wall-clock): one fused probe reads each tile of the
  cost matrix exactly once, where the classic phrasing re-streams the slab
  ``k`` times per radius guess plus once for the initial gains — ``k + 1``
  full passes.
"""

import numpy as np
import pytest

from repro.data import gaussian_mixture_with_outliers
from repro.metrics.blocked import MemmapCostShard, count_within
from repro.metrics.plan import CountingSource
from repro.sequential import kcenter_with_outliers
from repro.sequential.kcenter_outliers import (
    _ByFacility,
    _greedy_cover,
    candidate_radii,
)


@pytest.fixture(scope="module")
def workload():
    return gaussian_mixture_with_outliers(
        n_inliers=150, n_outliers=15, n_clusters=3, separation=12.0, rng=11
    )


@pytest.fixture(scope="module")
def cost_matrix(workload):
    return workload.to_metric().full_matrix()


def _assert_same_solution(base, other):
    np.testing.assert_array_equal(base.centers, other.centers)
    np.testing.assert_array_equal(base.assignment, other.assignment)
    assert base.cost == other.cost
    assert base.outlier_weight == other.outlier_weight
    np.testing.assert_array_equal(base.dropped_weight, other.dropped_weight)


class TestFusedParity:
    @pytest.mark.parametrize("budget", [1 << 30, 4096, 64])
    def test_budget_parity(self, cost_matrix, budget):
        base = kcenter_with_outliers(cost_matrix, 3, 15)
        other = kcenter_with_outliers(cost_matrix, 3, 15, memory_budget=budget)
        _assert_same_solution(base, other)

    def test_memmap_parity(self, cost_matrix, tmp_path):
        shard = MemmapCostShard.create(cost_matrix.shape, workdir=str(tmp_path))
        shard.write_rows(slice(0, cost_matrix.shape[0]), cost_matrix)
        mm = shard.finalize()
        base = kcenter_with_outliers(cost_matrix, 3, 15)
        other = kcenter_with_outliers(mm, 3, 15, memory_budget=4096)
        _assert_same_solution(base, other)

    @pytest.mark.parametrize("probe_batch", [1, 2, 5])
    def test_probe_batch_agreement_on_monotone_workload(self, cost_matrix, probe_batch):
        """Every batch width finds the same smallest feasible candidate radius
        *on this workload*, whose greedy feasibility is monotone over the
        candidate list (the analysis's assumption).  This is a deterministic
        regression pin, not a universal guarantee: on adversarial inputs with
        non-monotone feasibility, different batch widths may legitimately
        settle on different feasible radii (see the module docstring)."""
        base = kcenter_with_outliers(cost_matrix, 3, 15)
        other = kcenter_with_outliers(cost_matrix, 3, 15, probe_batch=probe_batch)
        _assert_same_solution(base, other)
        assert base.metadata["radius_guess"] == other.metadata["radius_guess"]

    def test_weighted_parity(self, cost_matrix):
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.5, 4.0, size=cost_matrix.shape[0])
        base = kcenter_with_outliers(cost_matrix, 4, 20.0, weights=weights)
        other = kcenter_with_outliers(
            cost_matrix, 4, 20.0, weights=weights, memory_budget=2048, probe_batch=4
        )
        _assert_same_solution(base, other)

    def test_probe_gains_matches_standalone_count_within(self, cost_matrix):
        weights = np.ones(cost_matrix.shape[0])
        radii = np.quantile(cost_matrix, [0.1, 0.4, 0.8])
        gains = list(_ByFacility(cost_matrix, memory_budget=4096).round_gains(radii, weights))
        for pos, radius in enumerate(radii):
            np.testing.assert_array_equal(
                gains[pos],
                count_within(cost_matrix, float(radius), weights=weights, memory_budget=4096),
            )

    def test_metadata_records_probe_stats(self, cost_matrix):
        sol = kcenter_with_outliers(cost_matrix, 3, 15, probe_batch=4)
        assert sol.metadata["probe_batch"] == 4
        assert sol.metadata["probe_rounds"] >= 1
        # A batch of 4 probes narrows ~5x per round: far fewer rounds than
        # candidates.
        assert sol.metadata["probe_rounds"] <= np.ceil(
            np.log(max(2, sol.metadata["n_radius_candidates"])) / np.log(5)
        ) + 1


class TestPassCounts:
    def test_fused_probe_reads_each_tile_exactly_once(self, cost_matrix):
        """The acceptance-criteria pass-count proof.

        One fused probe over a batch of radii streams the slab exactly once
        — each tile loaded one time — where the old path issued the initial
        gains pass plus ``k`` re-streams: ``k + 1`` full passes.
        """
        k = 8
        radii = np.quantile(cost_matrix, [0.2, 0.5, 0.8])
        weights = np.ones(cost_matrix.shape[0])

        source = CountingSource(cost_matrix)
        list(_ByFacility(source, memory_budget=2048).round_gains(radii, weights))
        assert source.cells_read == cost_matrix.size
        assert source.cell_counts.min() == 1
        assert source.cell_counts.max() == 1

        # The equivalent of ONE radius guess on the old path: k full
        # count_within re-streams plus the initial gains pass.
        old_path = CountingSource(cost_matrix)
        for _ in range(k + 1):
            count_within(old_path, float(radii[0]), weights=weights, memory_budget=2048)
        assert old_path.cells_read == (k + 1) * cost_matrix.size

    def test_incremental_greedy_rereads_at_most_one_extra_pass(self, cost_matrix):
        """Beyond the fused gains, the greedy touches each row at most once
        more (its zeroing downdate) plus one column per chosen center."""
        k = 8
        n, m = cost_matrix.shape
        radius = float(np.quantile(cost_matrix, 0.5))
        source = CountingSource(cost_matrix)
        centers, _ = _greedy_cover(
            _ByFacility(source, memory_budget=2048), np.ones(n), k, radius, 3.0
        )
        assert centers.size >= 1
        # gains pass (n*m) + downdates (<= n*m total) + k columns (k*n).
        assert source.cells_read <= 2 * n * m + k * n

    def test_full_solve_beats_old_path_pass_count(self, cost_matrix):
        k, t = 6, 15
        n, m = cost_matrix.shape
        source = CountingSource(cost_matrix)
        sol = kcenter_with_outliers(source, k, t, memory_budget=2048, probe_batch=3)
        probed = sol.metadata["probe_rounds"] * sol.metadata["probe_batch"]
        # Old path: per probed radius, (k + 1) full passes (plus the radius
        # collection).  New path: one fused pass per probe *round* plus
        # sub-pass downdates.  Even charging every probed radius, the new
        # path must come in far under the old bound.
        old_lower_bound = probed * (k + 1) * n * m
        assert source.cells_read < old_lower_bound / 2


class TestCandidateRadiiBatchedMerge:
    @pytest.mark.parametrize("budget", [8, 64, 2048, 1 << 20])
    def test_matches_dense_unique(self, cost_matrix, budget):
        dense = candidate_radii(cost_matrix, max_candidates=10_000)
        blocked = candidate_radii(
            cost_matrix, max_candidates=10_000, memory_budget=budget
        )
        np.testing.assert_array_equal(dense, blocked)

    def test_subsampled_still_matches(self, cost_matrix):
        dense = candidate_radii(cost_matrix, max_candidates=32)
        blocked = candidate_radii(cost_matrix, max_candidates=32, memory_budget=256)
        np.testing.assert_array_equal(dense, blocked)

    def test_block_source_supported(self, cost_matrix):
        source = CountingSource(cost_matrix)
        out = candidate_radii(source, max_candidates=64, memory_budget=1024)
        np.testing.assert_array_equal(
            out, candidate_radii(cost_matrix, max_candidates=64)
        )
        # The streamed collection is one full pass, not one pass per merge.
        assert source.cells_read == cost_matrix.size
