"""Tests for the fused reduction planner (``repro.metrics.plan``).

The acceptance bar mirrors ``tests/metrics/test_blocked.py``: every fused
plan must be *bitwise* identical to the equivalent sequence of standalone
blocked reductions — for dense arrays, explicit block sources, budgeted
tiles and memmap-backed shards read whole, in contiguous windows or at
scattered indices.  On top of parity, the pass-count tests
prove (via :class:`~repro.metrics.plan.CountingSource`, deterministically —
no wall-clock) that a fused plan reads each tile exactly once where the
standalone sequence reads the slab once per reduction.
"""

import numpy as np
import pytest

from repro.metrics import EuclideanMetric
from repro.metrics.blocked import (
    DEFAULT_CACHE_TARGET,
    MemmapCostShard,
    argmin_per_row,
    count_within,
    effective_tile_bytes,
    reduce_max,
    reduce_min_per_row,
    reduce_min_positive,
)
from repro.metrics.plan import CountingSource, ReductionPlan

BUDGETS = [None, 1 << 30, 4096, 256, 64, 8]  # 64 and 8 are below one row


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(17)
    base = rng.normal(size=(61, 37)) * 4.0
    return np.abs(base)


@pytest.fixture(scope="module")
def euclid():
    rng = np.random.default_rng(23)
    return EuclideanMetric(rng.normal(size=(53, 3)) * 5.0)


@pytest.fixture()
def memmap_matrix(matrix, tmp_path):
    shard = MemmapCostShard.create(matrix.shape, workdir=str(tmp_path))
    shard.write_rows(slice(0, matrix.shape[0]), matrix)
    return shard.finalize()


def _full_plan(source, rows=None, cols=None, *, radii, weights, budget):
    plan = ReductionPlan(source, rows, cols, memory_budget=budget)
    handles = {
        "max": plan.add_max(),
        "min_positive": plan.add_min_positive(),
        "min_per_row": plan.add_min_per_row(),
        "argmin": plan.add_argmin_per_row(),
        "count": plan.add_count_within(radii, weights=weights),
        "count_scalar": plan.add_count_within(float(radii[0]), weights=weights),
    }
    plan.execute()
    return plan, handles


class TestEffectiveTileBytes:
    """One rule: no budget is one dense tile, a budget is clamped to the
    cache target."""

    def test_none_none(self):
        assert effective_tile_bytes(None) is None

    def test_budget_only(self):
        assert effective_tile_bytes(1024) == 1024

    def test_cache_only(self):
        assert effective_tile_bytes(1 << 30) == DEFAULT_CACHE_TARGET

    def test_min_of_both(self):
        assert effective_tile_bytes(DEFAULT_CACHE_TARGET - 1) == DEFAULT_CACHE_TARGET - 1
        assert effective_tile_bytes(DEFAULT_CACHE_TARGET + 1) == DEFAULT_CACHE_TARGET
        assert effective_tile_bytes(512) == 512

    def test_string_budget(self):
        assert effective_tile_bytes("1KB") == 1024
        assert effective_tile_bytes("1GB") == DEFAULT_CACHE_TARGET


class TestFusedParity:
    """Fused results must be bitwise equal to the standalone sequence."""

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("block_source", [False, True])
    def test_array_source(self, matrix, budget, block_source):
        # ``block_source`` serves the same matrix through the explicit
        # ``get_block`` protocol (gathered copies) instead of array slices;
        # the load path must be invisible in the values.
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.1, 3.0, size=matrix.shape[0])
        radii = np.quantile(matrix, [0.2, 0.5, 0.9])
        source = CountingSource(matrix) if block_source else matrix
        plan, handles = _full_plan(source, radii=radii, weights=weights, budget=budget)
        assert handles["max"].value == reduce_max(matrix, memory_budget=budget)
        assert handles["min_positive"].value == reduce_min_positive(matrix, memory_budget=budget)
        np.testing.assert_array_equal(
            handles["min_per_row"].value, reduce_min_per_row(matrix, memory_budget=budget)
        )
        values, positions = handles["argmin"].value
        exp_values, exp_positions = argmin_per_row(matrix, memory_budget=budget)
        np.testing.assert_array_equal(values, exp_values)
        np.testing.assert_array_equal(positions, exp_positions)
        for pos, radius in enumerate(radii):
            np.testing.assert_array_equal(
                handles["count"].value[pos],
                count_within(matrix, float(radius), weights=weights, memory_budget=budget),
            )
        np.testing.assert_array_equal(
            handles["count_scalar"].value,
            count_within(matrix, float(radii[0]), weights=weights, memory_budget=budget),
        )
        # count_within forces full-height column strips.
        assert plan.orientation == "cols"
        assert plan.stats.passes == pytest.approx(1.0)
        if block_source:
            assert source.cells_read == matrix.size

    @pytest.mark.parametrize("budget", [None, 4096, 64])
    def test_metric_source(self, euclid, budget):
        plan = ReductionPlan(euclid, memory_budget=budget)
        h_max = plan.add_max()
        h_arg = plan.add_argmin_per_row()
        plan.execute()
        assert h_max.value == reduce_max(euclid, memory_budget=budget)
        values, positions = h_arg.value
        exp_values, exp_positions = argmin_per_row(euclid, memory_budget=budget)
        np.testing.assert_array_equal(values, exp_values)
        np.testing.assert_array_equal(positions, exp_positions)

    @pytest.mark.parametrize("budget", [4096, 256, 64])
    @pytest.mark.parametrize("contiguous", [None, False, True])
    def test_memmap_source(self, matrix, memmap_matrix, budget, contiguous):
        # ``contiguous`` picks the slab: None is the whole matrix, True a
        # contiguous window (sliced memmap views), False scattered rows and
        # columns (an ``np.ix_`` gather per tile).
        if contiguous is None:
            rows = cols = None
        elif contiguous:
            rows, cols = np.arange(5, 50), np.arange(3, 33)
        else:
            rows, cols = np.arange(0, matrix.shape[0], 2), np.arange(1, matrix.shape[1], 2)
        n_rows = matrix.shape[0] if rows is None else rows.size
        weights = np.linspace(0.5, 2.0, n_rows)
        radii = np.quantile(matrix, [0.3, 0.7])
        plan, handles = _full_plan(
            memmap_matrix, rows, cols, radii=radii, weights=weights, budget=budget
        )
        # Parity against the *dense in-RAM* standalone calls: the memmap,
        # the index pattern and the budget must all be invisible in the values.
        assert handles["max"].value == reduce_max(matrix, rows, cols)
        np.testing.assert_array_equal(
            handles["min_per_row"].value, reduce_min_per_row(matrix, rows, cols)
        )
        for pos, radius in enumerate(radii):
            np.testing.assert_array_equal(
                handles["count"].value[pos],
                count_within(matrix, float(radius), rows, cols, weights=weights),
            )
        assert plan.stats.n_tiles > 1

    def test_rows_cols_subsets(self, matrix):
        rows = [3, 4, 5, 9, 11]
        cols = [0, 2, 30, 31]
        plan = ReductionPlan(matrix, rows, cols, memory_budget=64)
        h = plan.add_argmin_per_row()
        plan.execute()
        values, positions = h.value
        exp_values, exp_positions = argmin_per_row(matrix, rows, cols, memory_budget=64)
        np.testing.assert_array_equal(values, exp_values)
        np.testing.assert_array_equal(positions, exp_positions)

    def test_empty_slab_defaults(self, matrix):
        plan = ReductionPlan(matrix, rows=[], cols=None)
        h_max = plan.add_max()
        h_count = plan.add_count_within(1.0)
        plan.execute()
        assert h_max.value == 0.0
        np.testing.assert_array_equal(h_count.value, np.zeros(matrix.shape[1]))
        assert plan.stats.n_tiles == 0


class TestPassCounts:
    """Deterministic pass-count proofs via the counting source wrapper."""

    def test_fused_plan_reads_each_tile_exactly_once(self, matrix):
        source = CountingSource(matrix)
        plan = ReductionPlan(source, memory_budget=2048)
        plan.add_max()
        plan.add_argmin_per_row()
        plan.add_count_within([0.5, 1.5, 2.5], weights=np.ones(matrix.shape[0]))
        plan.execute()
        # Every cell served exactly once: one streaming pass for all six
        # reductions (3 thresholds fused into one op + max + argmin).
        assert source.cells_read == matrix.size
        assert source.cell_counts.min() == 1
        assert source.cell_counts.max() == 1
        assert plan.stats.passes == pytest.approx(1.0)

    def test_standalone_sequence_reads_slab_per_reduction(self, matrix):
        source = CountingSource(matrix)
        reduce_max(source, memory_budget=2048)
        argmin_per_row(source, memory_budget=2048)
        for radius in (0.5, 1.5, 2.5):
            count_within(source, radius, memory_budget=2048)
        # Five standalone calls -> five full passes; the fused plan above
        # does the same work in one.
        assert source.cells_read == 5 * matrix.size
        assert source.cell_counts.min() == 5


class TestTileShapes:
    def test_tiles_respect_budget_and_cache(self):
        # An 8 MiB slab of zeros that occupies one float: the cache target
        # caps the tile even under a huge budget, and a budget below the
        # cache target caps it in turn.
        slab = np.broadcast_to(0.0, (1024, 1024))
        for budget, cap in ((1 << 30, DEFAULT_CACHE_TARGET), (2048, 2048)):
            plan = ReductionPlan(slab, memory_budget=budget)
            plan.add_max()
            plan.execute()
            assert plan.stats.tile_rows * plan.stats.tile_cols * 8 <= cap
            assert plan.stats.n_tiles > 1
            assert plan.stats.passes == pytest.approx(1.0)

    def test_count_plans_use_column_strips(self, matrix):
        plan = ReductionPlan(matrix, memory_budget=4096)
        plan.add_count_within(1.0)
        plan.execute()
        assert plan.stats.orientation == "cols"
        assert plan.stats.tile_rows == matrix.shape[0]

    def test_pure_row_reductions_use_row_blocks(self, matrix):
        plan = ReductionPlan(matrix, memory_budget=4096)
        plan.add_argmin_per_row()
        plan.execute()
        assert plan.stats.orientation == "rows"

    def test_unbudgeted_uncached_plan_is_one_tile(self):
        # No budget means one dense tile, even for a slab far above the
        # cache target.
        plan = ReductionPlan(np.broadcast_to(0.0, (1024, 1024)), memory_budget=None)
        plan.add_max()
        plan.execute()
        assert plan.stats.n_tiles == 1


class TestPlanLifecycle:
    def test_value_before_execute_raises(self, matrix):
        plan = ReductionPlan(matrix)
        handle = plan.add_max()
        with pytest.raises(RuntimeError, match="not been executed"):
            _ = handle.value

    def test_execute_twice_raises(self, matrix):
        plan = ReductionPlan(matrix)
        plan.add_max()
        plan.execute()
        with pytest.raises(RuntimeError, match="only be called once"):
            plan.execute()

    def test_add_after_execute_raises(self, matrix):
        plan = ReductionPlan(matrix)
        plan.add_max()
        plan.execute()
        with pytest.raises(RuntimeError, match="executed plan"):
            plan.add_min_positive()

    def test_count_weight_shape_validated(self, matrix):
        plan = ReductionPlan(matrix)
        with pytest.raises(ValueError, match="weights"):
            plan.add_count_within(1.0, weights=np.ones(3))

