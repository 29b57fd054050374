"""Fused reduction plans over cache-sized tiles.

:mod:`repro.metrics.blocked` made every reduction run in ``O(budget)``
memory, but it pays for that in *streaming passes*: each call re-reads the
cost matrix, so a hot loop issuing a max, a handful of ``count_within``
thresholds and a per-row argmin streams the same tiles three-plus times.
This module is the scheduling layer on top: :class:`ReductionPlan`
registers several reductions against one ``rows x cols`` slab and executes
them in a **single streaming pass**; every tile is loaded exactly once and
handed to every registered op.  Tiles follow the one sizing rule of
:func:`repro.metrics.blocked.effective_tile_bytes`: one dense tile without
a budget, at most ``min(memory_budget, DEFAULT_CACHE_TARGET)`` bytes with
one.

Bitwise parity
--------------
A fused plan must return *bitwise* the same results as the equivalent
sequence of standalone :mod:`repro.metrics.blocked` calls, for every
budget and tile shape.  The ops inherit the blocked layer's structural
guarantees: ``min``/``max``/``argmin`` commute with tiling exactly, and a
:meth:`ReductionPlan.add_count_within` op forces the plan into
**column-strip orientation** (full-height, column-contiguous tiles) so
each column is summed over all rows in a single Fortran-order
``np.add.reduce`` — the same accumulation discipline the standalone
``count_within`` uses, and the reason its result does not depend on the
strip width.

Block sources
-------------
A plan accepts the same sources as :func:`repro.metrics.blocked.iter_blocks`
(2-D arrays, memmaps, ``pairwise``-style metrics) plus any object exposing
``shape`` and ``get_block(rows, cols)``; the test-suite's counting wrappers
use the latter to prove pass counts deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metrics.blocked import (
    MemoryBudgetLike,
    _get_block,
    _resolve_axis,
    _source_shape,
    _tile_shape,
    effective_tile_bytes,
)
from repro.obs.trace import active_collector

# ----------------------------------------------------------------------
# Reduction ops.  Each op sees every tile exactly once (``update``) and
# produces its result in ``finalize``; the per-op semantics are copied
# verbatim from the standalone blocked reductions so fused results are
# bitwise identical to the sequential calls.
# ----------------------------------------------------------------------


class _MaxOp:
    tile_overhead = 0
    needs_full_rows = False

    def __init__(self, plan: "ReductionPlan"):
        self._best = -np.inf

    def update(self, rs: slice, cs: slice, block: np.ndarray) -> None:
        if block.size:
            self._best = max(self._best, float(block.max()))

    def finalize(self) -> float:
        return self._best if np.isfinite(self._best) else 0.0


class _MinPositiveOp:
    tile_overhead = 1  # the boolean mask + gathered positives
    needs_full_rows = False

    def __init__(self, plan: "ReductionPlan"):
        self._best = np.inf

    def update(self, rs: slice, cs: slice, block: np.ndarray) -> None:
        positive = block[block > 0]
        if positive.size:
            self._best = min(self._best, float(positive.min()))

    def finalize(self) -> float:
        return self._best if np.isfinite(self._best) else 0.0


class _MinPerRowOp:
    tile_overhead = 0
    needs_full_rows = False

    def __init__(self, plan: "ReductionPlan"):
        self._out = np.full(plan.n_rows, np.inf)

    def update(self, rs: slice, cs: slice, block: np.ndarray) -> None:
        np.minimum(self._out[rs], block.min(axis=1), out=self._out[rs])

    def finalize(self) -> np.ndarray:
        return self._out


class _ArgminPerRowOp:
    tile_overhead = 0
    needs_full_rows = False

    def __init__(self, plan: "ReductionPlan"):
        self._values = np.full(plan.n_rows, np.inf)
        self._positions = np.zeros(plan.n_rows, dtype=int)

    def update(self, rs: slice, cs: slice, block: np.ndarray) -> None:
        # Column tiles are scanned left to right and only a *strictly*
        # smaller value displaces the incumbent — np.argmin's
        # first-occurrence tie-breaking, independent of tile shape.
        local_arg = np.argmin(block, axis=1)
        local_val = block[np.arange(block.shape[0]), local_arg]
        better = local_val < self._values[rs]
        rows_in = np.flatnonzero(better) + rs.start
        self._values[rows_in] = local_val[better]
        self._positions[rows_in] = local_arg[better] + cs.start

    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._values, self._positions


class _CountWithinOp:
    tile_overhead = 2  # per-threshold boolean mask + Fortran-order product
    needs_full_rows = True

    def __init__(
        self,
        plan: "ReductionPlan",
        thresholds: Union[float, Sequence[float]],
        weights: Optional[np.ndarray],
    ):
        self._scalar = np.ndim(thresholds) == 0
        self._thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
        if weights is None:
            self._w = None
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (plan.n_rows,):
                raise ValueError(
                    f"weights must have shape ({plan.n_rows},), got {w.shape}"
                )
            self._w = w[:, None]
        self._out = np.zeros((self._thresholds.size, plan.n_cols), dtype=float)

    def update(self, rs: slice, cs: slice, block: np.ndarray) -> None:
        # The plan guarantees full-height column strips (needs_full_rows):
        # every column is summed over a contiguous run of all rows exactly
        # as the standalone count_within does, so the result is bitwise
        # independent of the strip width and the budget.
        for pos, threshold in enumerate(self._thresholds):
            mask = block <= threshold
            if self._w is None:
                prod = np.asfortranarray(mask, dtype=float)
            else:
                prod = np.multiply(self._w, mask, order="F")
            self._out[pos, cs] = np.add.reduce(prod, axis=0)

    def finalize(self) -> np.ndarray:
        return self._out[0] if self._scalar else self._out


class PlanHandle:
    """Result slot of one reduction registered on a :class:`ReductionPlan`."""

    def __init__(self, plan: "ReductionPlan", op: Any):
        self._plan = plan
        self._op = op
        self._result: Any = None
        self._ready = False

    def _finalize(self) -> None:
        self._result = self._op.finalize()
        self._ready = True

    @property
    def value(self) -> Any:
        """The reduction's result (available after :meth:`ReductionPlan.execute`)."""
        if not self._ready:
            raise RuntimeError("ReductionPlan has not been executed yet")
        return self._result


@dataclass
class PlanStats:
    """What one executed plan actually streamed (for benchmarks and tests)."""

    n_tiles: int = 0
    tile_rows: int = 0
    tile_cols: int = 0
    orientation: str = "rows"
    cells: int = 0
    bytes_streamed: int = 0
    passes: float = 0.0  # cells / slab cells: 1.0 == each tile read exactly once
    n_ops: int = 0

    def as_dict(self) -> dict:
        return {
            "n_tiles": int(self.n_tiles),
            "tile_rows": int(self.tile_rows),
            "tile_cols": int(self.tile_cols),
            "orientation": self.orientation,
            "cells": int(self.cells),
            "bytes_streamed": int(self.bytes_streamed),
            "passes": float(self.passes),
            "n_ops": int(self.n_ops),
        }


class CountingSource:
    """Instrumented block source: counts every tile load of a wrapped matrix.

    Implements the explicit block-source protocol (``shape`` +
    ``get_block``), so it slots anywhere a cost matrix does — reductions,
    plans, the k-center solver — and records deterministically how many
    cells were read and how often each cell was touched.  The benchmark
    suite and the pass-count tests use it to *prove* (not time) that fused
    plans stream each tile exactly once.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError(f"CountingSource wraps 2-D matrices, got {self.matrix.shape}")
        self.shape = self.matrix.shape
        self.loads: List[Tuple[int, int]] = []
        self.cell_counts = np.zeros(self.shape, dtype=np.int64)

    def get_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        self.loads.append((rows.size, cols.size))
        self.cell_counts[np.ix_(rows, cols)] += 1
        return self.matrix[np.ix_(rows, cols)]

    @property
    def cells_read(self) -> int:
        """Total cells served across all loads (one full pass == matrix.size)."""
        return int(sum(r * c for r, c in self.loads))

    @property
    def passes(self) -> float:
        """Cells read divided by the slab size — fractional full passes."""
        return self.cells_read / self.matrix.size

    def reset(self) -> None:
        self.loads = []
        self.cell_counts[:] = 0


class ReductionPlan:
    """Fuse several reductions over one slab into a single streaming pass.

    Register reductions with the ``add_*`` methods (each returns a
    :class:`PlanHandle`), then call :meth:`execute` once; every tile of the
    ``rows x cols`` slab is loaded exactly once and fed to every op.

    Parameters
    ----------
    source:
        2-D array / memmap, ``pairwise``-style metric, or any object with
        ``shape`` and ``get_block(rows, cols)``.
    rows, cols:
        Index subsets of the slab (default: everything).
    memory_budget:
        Byte cap on the transient tile (``None``: one dense tile); tiles
        are at most ``min(memory_budget, DEFAULT_CACHE_TARGET)`` bytes
        (see :func:`~repro.metrics.blocked.effective_tile_bytes`).
    """

    def __init__(
        self,
        source: Any,
        rows: Optional[Sequence[int]] = None,
        cols: Optional[Sequence[int]] = None,
        *,
        memory_budget: MemoryBudgetLike = None,
        itemsize: int = 8,
    ):
        self._source = source
        n_rows_total, n_cols_total = _source_shape(source)
        self._row_idx = _resolve_axis(source, rows, n_rows_total)
        self._col_idx = _resolve_axis(source, cols, n_cols_total)
        self._tile_bytes = effective_tile_bytes(memory_budget)
        self._itemsize = int(itemsize)
        self._ops: List[Any] = []
        self._handles: List[PlanHandle] = []
        self._executed = False
        self.stats = PlanStats()

    # -- geometry ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self._row_idx.size)

    @property
    def n_cols(self) -> int:
        return int(self._col_idx.size)

    @property
    def orientation(self) -> str:
        """``"cols"`` (full-height column strips) when any op needs whole
        columns in one piece (``count_within``); ``"rows"`` otherwise."""
        if any(op.needs_full_rows for op in self._ops):
            return "cols"
        return "rows"

    def _op_tile_bytes(self) -> Optional[int]:
        """Tile byte cap shrunk by the worst per-op transient multiplier.

        Ops run sequentially per tile, so the peak transient is the tile
        plus the hungriest op's scratch (masks, Fortran products) — not the
        sum over ops.  Shrinking keeps the whole pass inside the budget;
        results never depend on the tile size.
        """
        if self._tile_bytes is None:
            return None
        overhead = max((op.tile_overhead for op in self._ops), default=0)
        return max(1, self._tile_bytes // (1 + overhead))

    def _tile_plan(self) -> Tuple[List[Tuple[slice, slice]], Tuple[int, int]]:
        """The ordered tile list and the (nominal) tile shape."""
        n_rows, n_cols = self.n_rows, self.n_cols
        if n_rows == 0 or n_cols == 0:
            return [], (0, 0)
        tile_bytes = self._op_tile_bytes()
        if self.orientation == "cols":
            if tile_bytes is None:
                col_chunk = n_cols
            else:
                col_chunk = max(1, tile_bytes // (self._itemsize * max(1, n_rows)))
            tiles = [
                (slice(0, n_rows), slice(c0, min(c0 + col_chunk, n_cols)))
                for c0 in range(0, n_cols, col_chunk)
            ]
            return tiles, (n_rows, col_chunk)
        row_chunk, col_chunk = _tile_shape(n_rows, n_cols, tile_bytes, self._itemsize)
        tiles = []
        for r0 in range(0, n_rows, row_chunk):
            r1 = min(r0 + row_chunk, n_rows)
            for c0 in range(0, n_cols, col_chunk):
                c1 = min(c0 + col_chunk, n_cols)
                tiles.append((slice(r0, r1), slice(c0, c1)))
        return tiles, (row_chunk, col_chunk)

    # -- op registration ----------------------------------------------

    def _register(self, op: Any) -> PlanHandle:
        if self._executed:
            raise RuntimeError("cannot add reductions to an executed plan")
        handle = PlanHandle(self, op)
        self._ops.append(op)
        self._handles.append(handle)
        return handle

    def add_max(self) -> PlanHandle:
        """Fused :func:`repro.metrics.blocked.reduce_max`."""
        return self._register(_MaxOp(self))

    def add_min_positive(self) -> PlanHandle:
        """Fused :func:`repro.metrics.blocked.reduce_min_positive`."""
        return self._register(_MinPositiveOp(self))

    def add_min_per_row(self) -> PlanHandle:
        """Fused :func:`repro.metrics.blocked.reduce_min_per_row`."""
        return self._register(_MinPerRowOp(self))

    def add_argmin_per_row(self) -> PlanHandle:
        """Fused :func:`repro.metrics.blocked.argmin_per_row`."""
        return self._register(_ArgminPerRowOp(self))

    def add_count_within(
        self,
        thresholds: Union[float, Sequence[float]],
        *,
        weights: Optional[np.ndarray] = None,
    ) -> PlanHandle:
        """Fused :func:`repro.metrics.blocked.count_within`, one or many thresholds.

        A scalar threshold yields a ``(n_cols,)`` result; a sequence of
        ``m`` thresholds yields ``(m, n_cols)`` — all ``m`` evaluated
        against each tile while it is hot, one matrix pass total.
        """
        return self._register(_CountWithinOp(self, thresholds, weights))

    # -- execution -----------------------------------------------------

    def execute(self) -> "ReductionPlan":
        """Stream the slab once, feeding every tile to every registered op."""
        if self._executed:
            raise RuntimeError("ReductionPlan.execute() may only be called once")
        self._executed = True
        collector = active_collector()
        tiles, (tile_rows, tile_cols) = self._tile_plan()
        cells = 0
        for rs, cs in tiles:
            block = _get_block(self._source, self._row_idx[rs], self._col_idx[cs])
            cells += block.size
            for op in self._ops:
                op.update(rs, cs, block)

        slab_cells = self.n_rows * self.n_cols
        self.stats = PlanStats(
            n_tiles=len(tiles),
            tile_rows=tile_rows,
            tile_cols=tile_cols,
            orientation=self.orientation,
            cells=cells,
            bytes_streamed=cells * self._itemsize,
            passes=(cells / slab_cells) if slab_cells else 0.0,
            n_ops=len(self._ops),
        )
        if collector is not None:
            # First-class counters replacing the test suite's ad hoc
            # counting-source probes: any traced run can report pass counts
            # and streamed volume without wrapping its sources.
            collector.inc("plan.executions")
            collector.inc("plan.tiles", len(tiles))
            collector.inc("plan.cells", cells)
            collector.inc("plan.bytes_streamed", cells * self._itemsize)
        for handle in self._handles:
            handle._finalize()
        return self


__all__ = [
    "CountingSource",
    "PlanHandle",
    "PlanStats",
    "ReductionPlan",
]
