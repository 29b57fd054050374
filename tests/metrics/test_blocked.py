"""Unit tests for the blocked, memory-budgeted metric layer.

The acceptance bar (mirroring ``tests/runtime/test_cluster_parity.py`` for
backends): every blocked computation must be *bitwise* identical to its
dense counterpart for every memory budget, including budgets smaller than a
single row.
"""

import numpy as np
import pytest

from repro.metrics import EuclideanMetric, MatrixMetric, build_cost_matrix
from repro.metrics.blocked import (
    DEFAULT_CACHE_TARGET,
    MemmapCostShard,
    argmin_per_row,
    contiguous_slice,
    count_within,
    iter_blocks,
    materialize,
    materialize_rows,
    reduce_max,
    reduce_min_positive,
    resolve_memory_budget,
)

BUDGETS = [None, 1 << 30, 4096, 256, 64, 8]  # 64 and 8 are below one row


@pytest.fixture(scope="module")
def euclid():
    rng = np.random.default_rng(7)
    return EuclideanMetric(rng.normal(size=(83, 3)) * 5.0)


@pytest.fixture(scope="module")
def matrix_metric(euclid):
    return MatrixMetric(euclid.full_matrix(), validate=False)


class TestBudgetParsing:
    def test_none_passthrough(self):
        assert resolve_memory_budget(None) is None

    @pytest.mark.parametrize(
        "spec,expected",
        [(4096, 4096), (4096.0, 4096), ("4096", 4096), ("4KB", 4 * 2**10),
         ("64MB", 64 * 2**20), ("2GiB", 2 * 2**30), ("1 mb", 2**20)],
    )
    def test_parsing(self, spec, expected):
        assert resolve_memory_budget(spec) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_memory_budget("lots")

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_memory_budget(0)


class TestContiguousSlice:
    def test_contiguous_run(self):
        assert contiguous_slice(np.arange(3, 9)) == slice(3, 9)

    def test_single_index(self):
        assert contiguous_slice(np.asarray([5])) == slice(5, 6)

    @pytest.mark.parametrize("idx", [[3, 5, 6], [4, 3, 2], [1, 1, 2], []])
    def test_non_contiguous(self, idx):
        assert contiguous_slice(np.asarray(idx, dtype=int)) is None


class TestIterBlocks:
    @pytest.mark.parametrize("budget", BUDGETS[1:])
    def test_tiles_cover_and_respect_budget(self, euclid, budget):
        dense = euclid.full_matrix()
        assembled = np.full_like(dense, np.nan)
        for rs, cs, block in iter_blocks(euclid, memory_budget=budget):
            assert block.nbytes <= max(budget, block.shape[0] * 8)  # >= one element per row
            if budget >= dense.shape[1] * 8:
                assert block.nbytes <= budget
            assembled[rs, cs] = block
        np.testing.assert_array_equal(assembled, dense)

    def test_budget_none_is_one_tile(self, euclid):
        tiles = list(iter_blocks(euclid))
        assert len(tiles) == 1
        np.testing.assert_array_equal(tiles[0][2], euclid.full_matrix())

    def test_budget_above_cache_target_yields_cache_sized_tiles(self):
        # An 8 MiB slab of zeros that occupies one float: under a 1 GiB
        # budget iter_blocks tiles it like a plan does, in pieces of at
        # most DEFAULT_CACHE_TARGET bytes.
        slab = np.broadcast_to(0.0, (1024, 1024))
        tiles = list(iter_blocks(slab, memory_budget=1 << 30))
        assert len(tiles) > 1
        assert all(block.nbytes <= DEFAULT_CACHE_TARGET for _, _, block in tiles)
        assert sum(block.size for _, _, block in tiles) == slab.size

    def test_array_source_and_subsets(self, euclid):
        dense = euclid.full_matrix()
        rows, cols = [4, 9, 2], [0, 7]
        for source in (euclid, dense):
            tiles = list(iter_blocks(source, rows, cols, memory_budget=16))
            assembled = np.empty((3, 2))
            for rs, cs, block in tiles:
                assembled[rs, cs] = block
            np.testing.assert_array_equal(assembled, dense[np.ix_(rows, cols)])


class TestBlockedReductions:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_reduce_max_bitwise(self, euclid, matrix_metric, budget):
        for metric in (euclid, matrix_metric):
            dense = metric.full_matrix()
            assert reduce_max(metric, memory_budget=budget) == float(dense.max())

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_reduce_min_positive_bitwise(self, euclid, budget):
        dense = euclid.full_matrix()
        expected = float(dense[dense > 0].min())
        assert reduce_min_positive(euclid, memory_budget=budget) == expected

    def test_min_positive_all_zero(self):
        metric = MatrixMetric(np.zeros((4, 4)))
        assert reduce_min_positive(metric, memory_budget=16) == 0.0

    @pytest.mark.parametrize("budget", [None, 1 << 20, 64])
    def test_empty_slab_returns_defaults(self, euclid, budget):
        """An empty rows/cols axis must hit the documented defaults, not a
        ZeroDivisionError in the tile-shape arithmetic."""
        assert reduce_max(euclid, [], [], memory_budget=budget) == 0.0
        assert reduce_min_positive(euclid, [], None, memory_budget=budget) == 0.0
        assert list(iter_blocks(np.empty((0, 0)), memory_budget=budget)) == []
        assert reduce_max(np.empty((0, 5)), memory_budget=budget) == 0.0

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_argmin_per_row_bitwise(self, euclid, budget):
        dense = euclid.full_matrix()
        cols = np.asarray([3, 1, 17, 40, 8])
        values, positions = argmin_per_row(euclid, None, cols, memory_budget=budget)
        block = dense[:, cols]
        np.testing.assert_array_equal(positions, np.argmin(block, axis=1))
        np.testing.assert_array_equal(values, block.min(axis=1))

    @pytest.mark.parametrize("budget", [None, 64, 8])
    def test_argmin_ties_first_occurrence(self, budget):
        # Duplicate minima in every row: ties must resolve like np.argmin.
        mat = np.zeros((3, 6))
        mat[:, [1, 4]] = -1.0
        values, positions = argmin_per_row(mat, memory_budget=budget)
        np.testing.assert_array_equal(positions, np.full(3, 1))
        np.testing.assert_array_equal(values, np.full(3, -1.0))

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_count_within_weighted_bitwise(self, euclid, budget):
        dense = euclid.full_matrix()
        w = np.random.default_rng(3).random(dense.shape[0])
        threshold = float(np.median(dense))
        got = count_within(euclid, threshold, weights=w, memory_budget=budget)
        # The canonical accumulation is column-contiguous (Fortran order);
        # it is what every budget, including None, must reproduce bitwise.
        expected = np.add.reduce(
            np.multiply(w[:, None], dense <= threshold, order="F"), axis=0
        )
        np.testing.assert_array_equal(got, expected)
        assert np.allclose(got, (w[:, None] * (dense <= threshold)).sum(axis=0))

    def test_count_within_unweighted(self, euclid):
        dense = euclid.full_matrix()
        threshold = float(np.median(dense))
        got = count_within(euclid, threshold, memory_budget=128)
        np.testing.assert_array_equal(got, (dense <= threshold).sum(axis=0).astype(float))


class TestMetricHelpersBlocked:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_diameter_spread_budget_invariant(self, euclid, budget):
        dense = euclid.full_matrix()
        assert euclid.diameter(memory_budget=budget) == float(dense.max())
        assert euclid.min_positive_distance(memory_budget=budget) == float(dense[dense > 0].min())
        expected_spread = float(dense.max()) / float(dense[dense > 0].min())
        assert euclid.spread(memory_budget=budget) == expected_spread

    def test_subset_metric_helpers(self, euclid):
        sub = euclid.subset([2, 11, 30, 4, 55])
        dense = sub.full_matrix()
        assert sub.diameter(memory_budget=32) == float(dense.max())
        assert sub.diameter() == sub.diameter(memory_budget=16)

    def test_degenerate_sizes(self, euclid):
        assert euclid.diameter([3]) == 0.0
        assert euclid.min_positive_distance([]) == 0.0


class TestEuclideanTilingInvariance:
    def test_pairwise_subblock_equals_slice(self, euclid):
        """The kernel contract the whole blocked layer rests on."""
        full = euclid.full_matrix()
        n = len(euclid)
        for chunk in (1, 7, 30):
            for r0 in range(0, n, chunk):
                rows = np.arange(r0, min(r0 + chunk, n))
                np.testing.assert_array_equal(
                    euclid.pairwise(rows, np.arange(n)), full[rows]
                )
        cols = np.arange(13, 29)
        np.testing.assert_array_equal(
            euclid.pairwise(np.arange(n), cols), full[:, cols]
        )

    def test_identical_points_exact_zero(self):
        pts = np.vstack([np.ones((2, 4)), np.zeros((1, 4))])
        metric = EuclideanMetric(pts)
        assert metric.pairwise([0], [1])[0, 0] == 0.0


class TestMatrixMetricAliasing:
    def test_full_matrix_is_readonly_view(self, matrix_metric):
        mat = matrix_metric.full_matrix()
        assert np.shares_memory(mat, matrix_metric.matrix)
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_contiguous_pairwise_is_view(self, matrix_metric):
        block = matrix_metric.pairwise(np.arange(2, 9), np.arange(4, 11))
        assert np.shares_memory(block, matrix_metric.matrix)
        np.testing.assert_array_equal(block, matrix_metric.matrix[2:9, 4:11])

    def test_fancy_pairwise_matches(self, matrix_metric):
        rows, cols = [5, 2, 9], [1, 8]
        np.testing.assert_array_equal(
            matrix_metric.pairwise(rows, cols),
            matrix_metric.matrix[np.ix_(rows, cols)],
        )

    def test_negative_indices_keep_fancy_semantics(self, matrix_metric, euclid):
        """contiguous_slice must not turn [-1] into the empty slice(-1, 0)."""
        assert contiguous_slice(np.asarray([-1])) is None
        assert contiguous_slice(np.asarray([-2, -1])) is None
        n = len(matrix_metric)
        np.testing.assert_array_equal(
            matrix_metric.pairwise([0, 1], [-1]),
            matrix_metric.matrix[np.ix_([0, 1], [n - 1])],
        )
        np.testing.assert_array_equal(
            euclid.pairwise([0], [-1]), euclid.pairwise([0], [len(euclid) - 1])
        )


class TestMaterialize:
    def test_in_ram_when_it_fits(self, euclid, tmp_path):
        dense = euclid.full_matrix()
        got = materialize(euclid, memory_budget=1 << 30, workdir=str(tmp_path))
        assert not isinstance(got, np.memmap)
        np.testing.assert_array_equal(got, dense)

    @pytest.mark.parametrize("budget", [4096, 64])
    def test_spills_to_memmap_bitwise(self, euclid, tmp_path, budget):
        dense = euclid.full_matrix()
        got = materialize(euclid, memory_budget=budget, workdir=str(tmp_path))
        assert isinstance(got, np.memmap)
        assert str(got.filename).startswith(str(tmp_path))
        np.testing.assert_array_equal(np.asarray(got), dense)
        with pytest.raises(ValueError):
            got[0, 0] = 1.0  # read-only by contract

    def test_transform_rows(self, euclid, tmp_path):
        offsets = np.arange(len(euclid), dtype=float)
        dense = euclid.full_matrix() ** 2 + offsets[:, None]
        got = materialize(
            euclid,
            transform=lambda block, rs: block * block + offsets[rs][:, None],
            memory_budget=256,
            workdir=str(tmp_path),
        )
        np.testing.assert_array_equal(np.asarray(got), dense)

    def test_materialize_rows_shape_check(self):
        with pytest.raises(ValueError):
            materialize_rows(lambda rs: np.zeros((rs.stop - rs.start, 3)), 4, 5)


class TestBuildCostMatrixBudget:
    @pytest.mark.parametrize("objective", ["median", "means", "center"])
    @pytest.mark.parametrize("budget", [None, 1 << 30, 512, 16])
    def test_bitwise_parity(self, euclid, tmp_path, objective, budget):
        n = len(euclid)
        dense = build_cost_matrix(euclid, range(n), range(n), objective)
        got = build_cost_matrix(
            euclid, range(n), range(n), objective,
            memory_budget=budget, workdir=str(tmp_path),
        )
        np.testing.assert_array_equal(np.asarray(got), dense)

    def test_spill_only_beyond_budget(self, euclid, tmp_path):
        n = len(euclid)
        fits = build_cost_matrix(
            euclid, range(n), range(n), "median",
            memory_budget=n * n * 8, workdir=str(tmp_path),
        )
        spilled = build_cost_matrix(
            euclid, range(n), range(n), "median",
            memory_budget=n * n * 8 - 1, workdir=str(tmp_path),
        )
        assert not isinstance(fits, np.memmap)
        assert isinstance(spilled, np.memmap)


class TestMemmapCostShard:
    def _make(self, tmp_path, rng):
        data = rng.random((37, 23))
        shard = MemmapCostShard.create(data.shape, workdir=str(tmp_path))
        shard.write_rows(slice(0, 20), data[:20])
        shard.write_rows(slice(20, 37), data[20:])
        shard.finalize()
        return shard, data

    def test_round_trip(self, tmp_path, rng):
        shard, data = self._make(tmp_path, rng)
        np.testing.assert_array_equal(np.asarray(shard.matrix), data)
        assert shard.nbytes == data.nbytes

    def test_unlink(self, tmp_path, rng):
        shard, _ = self._make(tmp_path, rng)
        shard.unlink()
        import os
        assert not os.path.exists(shard.path)

    def test_write_after_finalize_raises(self, tmp_path, rng):
        shard, _ = self._make(tmp_path, rng)
        with pytest.raises(RuntimeError):
            shard.write_rows(slice(0, 1), np.zeros((1, 23)))
