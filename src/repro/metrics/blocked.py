"""Blocked, memory-budgeted evaluation over metric spaces and cost matrices.

The coordinator-model algorithms only ever need *blocks* of the distance
function — a max here, a per-row argmin there — yet the natural numpy
phrasing materialises full ``n x n`` arrays, which OOMs large shards long
before the algorithms' communication bounds matter.  This module is the
streaming layer that fixes that:

* :func:`iter_blocks` — tile a ``rows x cols`` slab of any *block source*
  (a :class:`~repro.metrics.base.MetricSpace`-like object with ``pairwise``,
  or an explicit 2-D array) into tiles of at most
  :func:`effective_tile_bytes` bytes;
* blocked reductions — :func:`reduce_max`, :func:`reduce_min_positive`,
  :func:`reduce_min_per_row`, :func:`argmin_per_row`, :func:`count_within` —
  which never hold more than one tile;
* :func:`materialize_rows` / :func:`materialize` — build a cost matrix in
  row blocks, spilling to a disk-backed :class:`MemmapCostShard` when the
  result itself would not fit the budget.

Bit-identical semantics
-----------------------
Every function here is required to return *bitwise* the same result for any
``memory_budget`` (including ``None`` — one tile covering everything).  The
reductions achieve this structurally: ``min``/``max``/``argmin`` commute with
tiling exactly, :func:`count_within` sums each column over all rows in a
single ``np.add.reduce`` (columns are tiled, the reduction axis never is),
and the materialisers tile rows only, so every row is produced by the same
call shape.  The remaining obligation falls on block sources: ``pairwise``
must be *tiling-invariant* (a sub-block equals the corresponding slice of the
full block, bit for bit).  Index-backed metrics are invariant for free;
:class:`~repro.metrics.euclidean.EuclideanMetric` uses a shape-independent
per-dimension kernel for exactly this reason.

Memory budgets
--------------
A budget is ``None`` (no tiling — the legacy dense behaviour), a number of
bytes, or a string like ``"64MB"`` (binary units: KB = 2**10, MB = 2**20,
GB = 2**30).  Budgets bound the *transient* tile, not O(1) per-row/column
state; a budget smaller than one row still works (the tile degenerates to a
single row, or to a column sliver for the 2-D tilers) and still returns
bit-identical results.  One rule sizes every tile
(:func:`effective_tile_bytes`): without a budget there is one dense tile,
and with one a tile holds at most ``min(budget, DEFAULT_CACHE_TARGET)``
bytes, so a generous budget still streams cache-sized pieces.

Shard handles
-------------
:class:`MemmapCostShard` streams a site's cost matrix from an ``np.memmap``
instead of RAM.  It pickles as a *handle* (path + shape + dtype, never the
data), so a shard created by a worker process crosses the
:mod:`repro.runtime` boundary for the price of a filename.  File lifetime
belongs to whoever owns the directory the shard lives in: the protocol
drivers create a scratch directory per run and remove it when the run
completes; direct callers should pass ``workdir=`` and clean up themselves.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import uuid
from contextlib import contextmanager
from multiprocessing.util import Finalize
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.trace import active_collector

#: Budget used by always-blocked pure reductions (e.g. ``MetricSpace.diameter``)
#: when the caller does not specify one.  64 MiB keeps tiles comfortably in
#: cache-friendly territory while staying far below any dense ``n x n``.
DEFAULT_REDUCTION_BUDGET = 64 * 2**20

_UNIT_SUFFIXES = {
    "B": 1,
    "KB": 2**10,
    "KIB": 2**10,
    "MB": 2**20,
    "MIB": 2**20,
    "GB": 2**30,
    "GIB": 2**30,
}

MemoryBudgetLike = Union[None, int, float, str]


def resolve_memory_budget(budget: MemoryBudgetLike) -> Optional[int]:
    """Normalise a memory budget to bytes (``None`` means unbudgeted/dense).

    Accepts ``None``, a number of bytes, or a string with a binary unit
    suffix: ``"4096"``, ``"256KB"``, ``"64MB"``, ``"2GB"``.
    """
    if budget is None:
        return None
    if isinstance(budget, str):
        text = budget.strip().upper().replace(" ", "")
        for suffix in sorted(_UNIT_SUFFIXES, key=len, reverse=True):
            if text.endswith(suffix):
                number = text[: -len(suffix)]
                break
        else:
            suffix, number = "B", text
        try:
            value = float(number)
        except ValueError as exc:
            raise ValueError(f"cannot parse memory budget {budget!r}") from exc
        value *= _UNIT_SUFFIXES[suffix]
    else:
        value = float(budget)
    if value < 1:
        raise ValueError(f"memory budget must be at least 1 byte, got {budget!r}")
    return int(value)


#: Cache target for tile sizing: tiles larger than this thrash caches long
#: before they hit the memory budget, so budgeted tiles are clamped to
#: ``min(memory_budget, DEFAULT_CACHE_TARGET)``.  4 MiB sits comfortably
#: inside the L2/L3 of anything the suite runs on while keeping tile-loop
#: overhead low.
DEFAULT_CACHE_TARGET = 4 * 2**20


def effective_tile_bytes(memory_budget: MemoryBudgetLike) -> Optional[int]:
    """Byte cap for one tile: ``None`` (one dense tile) without a budget,
    otherwise the smaller of the budget and :data:`DEFAULT_CACHE_TARGET`."""
    budget = resolve_memory_budget(memory_budget)
    if budget is None:
        return None
    return min(budget, DEFAULT_CACHE_TARGET)


def contiguous_slice(indices: np.ndarray) -> Optional[slice]:
    """The equivalent ``slice`` when ``indices`` is a contiguous ascending run.

    Lets index-backed sources hand out *views* instead of gather copies (see
    the aliasing contracts of :class:`~repro.metrics.matrix.MatrixMetric`).
    Returns ``None`` when the indices are not of the form ``a, a+1, ..., b``.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.size == 0:
        return None
    start = int(indices[0])
    stop = int(indices[-1]) + 1
    if start < 0 or stop - start != indices.size:
        # Python-style negative indices cannot be served as a plain slice
        # (slice(-1, 0) is empty); let callers fall back to fancy indexing.
        return None
    if indices.size > 1 and not np.array_equal(
        indices, np.arange(start, stop, dtype=indices.dtype)
    ):
        return None
    return slice(start, stop)


def _source_shape(source: Any) -> Tuple[int, int]:
    if isinstance(source, np.ndarray):
        if source.ndim != 2:
            raise ValueError(f"array block source must be 2-D, got shape {source.shape}")
        return source.shape
    if hasattr(source, "get_block"):
        shape = tuple(source.shape)
        if len(shape) != 2:
            raise ValueError(f"block source must be 2-D, got shape {shape}")
        return int(shape[0]), int(shape[1])
    n = len(source)
    return n, n


def _resolve_axis(source: Any, indices, axis_len: int) -> np.ndarray:
    if indices is None:
        return np.arange(axis_len)
    return np.asarray(indices, dtype=int)


def _get_block(source: Any, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One tile of the source: ``pairwise`` for metrics, slicing for arrays.

    Besides arrays and metrics, any object exposing ``shape`` and
    ``get_block(rows, cols)`` works as an *explicit block source* — the
    test-suite's counting wrappers use this to assert tile-load counts.
    """
    if isinstance(source, np.ndarray):
        rs, cs = contiguous_slice(rows), contiguous_slice(cols)
        if rs is not None and cs is not None:
            return source[rs, cs]
        if rs is not None:
            return source[rs][:, cols]
        # Scattered rows: gather exactly the requested cells.  (A chained
        # ``source[rows][:, cols]`` would copy ALL columns of the rows once
        # per tile — quadratic traffic for the row-subset gain downdates.)
        return source[np.ix_(rows, cols)]
    if hasattr(source, "get_block"):
        return np.asarray(source.get_block(rows, cols))
    return np.asarray(source.pairwise(rows, cols))


def read_block(source: Any, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Public one-shot block read through the block-source dispatch."""
    return _get_block(
        source, np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    )


def as_block_source(source: Any, *, dtype: Optional[str] = "float64") -> Any:
    """Normalise a cost-matrix argument into a 2-D block source.

    Objects exposing ``shape`` + ``get_block`` (explicit block sources, e.g.
    counting wrappers) pass through untouched.  Arrays — including memmaps —
    pass through when already 2-D of ``dtype`` (so a disk-backed matrix
    stays lazy) and are coerced otherwise; ``dtype=None`` skips the dtype
    coercion entirely.
    """
    if not isinstance(source, np.ndarray) and hasattr(source, "get_block"):
        shape = tuple(source.shape)
        if len(shape) != 2:
            raise ValueError(f"block source must be 2-D, got shape {shape}")
        return source
    if isinstance(source, np.ndarray) and (
        dtype is None or source.dtype == np.dtype(dtype)
    ):
        arr = source
    else:
        arr = np.asarray(source, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"block source must be 2-D, got shape {arr.shape}")
    return arr


def _tile_shape(n_rows: int, n_cols: int, budget: Optional[int], itemsize: int) -> Tuple[int, int]:
    """Largest ``(row_chunk, col_chunk)`` whose tile fits the budget.

    Prefers whole rows (row blocks); only when the budget cannot hold a single
    row does the tile degenerate to one row of a column sliver.
    """
    if budget is None:
        return n_rows, n_cols
    max_cells = max(1, budget // itemsize)
    if n_cols <= max_cells:
        return max(1, min(n_rows, max_cells // n_cols)), n_cols
    return 1, int(max_cells)


def iter_blocks(
    source: Any,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    memory_budget: MemoryBudgetLike = None,
    itemsize: int = 8,
) -> Iterator[Tuple[slice, slice, np.ndarray]]:
    """Tile ``rows x cols`` of a block source under a memory budget.

    Yields ``(row_slice, col_slice, block)`` where the slices index into the
    *given* ``rows`` / ``cols`` sequences (or ``range(len(source))`` when
    omitted) and ``block`` is the corresponding tile of distances/costs, at
    most :func:`effective_tile_bytes` bytes large.  ``memory_budget=None``
    yields a single tile — the legacy dense evaluation.
    """
    n_rows_total, n_cols_total = _source_shape(source)
    row_idx = _resolve_axis(source, rows, n_rows_total)
    col_idx = _resolve_axis(source, cols, n_cols_total)
    if row_idx.size == 0 or col_idx.size == 0:
        return  # an empty slab has no tiles (reductions fall back to their defaults)
    tile_bytes = effective_tile_bytes(memory_budget)
    row_chunk, col_chunk = _tile_shape(row_idx.size, col_idx.size, tile_bytes, itemsize)
    for r0 in range(0, row_idx.size, row_chunk):
        r1 = min(r0 + row_chunk, row_idx.size)
        for c0 in range(0, col_idx.size, col_chunk):
            c1 = min(c0 + col_chunk, col_idx.size)
            block = _get_block(source, row_idx[r0:r1], col_idx[c0:c1])
            yield slice(r0, r1), slice(c0, c1), block


# ----------------------------------------------------------------------
# Blocked reductions — thin wrappers over single-op ReductionPlans.
#
# The plan executor (repro.metrics.plan) owns the tiling, sized by
# effective_tile_bytes like every other tile.  Every reduction is bitwise
# identical for every budget and tile shape.
# ----------------------------------------------------------------------


def _single_op_plan(source: Any, rows, cols, memory_budget: MemoryBudgetLike):
    # Imported lazily: plan.py imports this module's tiling helpers at load
    # time, so the reverse import must wait until both are initialised.
    from repro.metrics.plan import ReductionPlan

    return ReductionPlan(source, rows, cols, memory_budget=memory_budget)


def reduce_max(
    source: Any,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    memory_budget: MemoryBudgetLike = None,
) -> float:
    """Maximum over the ``rows x cols`` slab (0.0 when the slab is empty)."""
    plan = _single_op_plan(source, rows, cols, memory_budget)
    handle = plan.add_max()
    plan.execute()
    return handle.value


def reduce_min_positive(
    source: Any,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    memory_budget: MemoryBudgetLike = None,
) -> float:
    """Minimum strictly positive entry of the slab (0.0 when there is none)."""
    plan = _single_op_plan(source, rows, cols, memory_budget)
    handle = plan.add_min_positive()
    plan.execute()
    return handle.value


def reduce_min_per_row(
    source: Any,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    memory_budget: MemoryBudgetLike = None,
) -> np.ndarray:
    """Per-row minimum over the columns, as a ``(n_rows,)`` array."""
    plan = _single_op_plan(source, rows, cols, memory_budget)
    handle = plan.add_min_per_row()
    plan.execute()
    return handle.value


def argmin_per_row(
    source: Any,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    memory_budget: MemoryBudgetLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(min value, argmin column position)`` over the columns.

    Positions index into ``cols`` (or ``range(n)``), and ties resolve to the
    first occurrence — exactly ``np.argmin`` semantics — because column tiles
    are scanned left to right and only a *strictly* smaller value displaces
    the incumbent.
    """
    plan = _single_op_plan(source, rows, cols, memory_budget)
    handle = plan.add_argmin_per_row()
    plan.execute()
    return handle.value


def count_within(
    source: Any,
    threshold: float,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    weights: Optional[np.ndarray] = None,
    memory_budget: MemoryBudgetLike = None,
) -> np.ndarray:
    """Per-column (weighted) count of entries ``<= threshold``.

    Tiles *columns only* (the plan's column-strip orientation), and reduces
    a Fortran-ordered product so every column is summed over a contiguous
    run of all rows: the accumulation order per column never depends on the
    budget and the result is bit-identical across budgets (BLAS
    ``weights @ mask`` is not — its reduction blocking varies with the
    panel shape, and even numpy's pairwise summation takes a different path
    for strided columns).  Transient memory is ``O(n_rows * col_chunk)``.
    """
    plan = _single_op_plan(source, rows, cols, memory_budget)
    handle = plan.add_count_within(threshold, weights=weights)
    plan.execute()
    return handle.value


# ----------------------------------------------------------------------
# Materialisation (with disk spill)
# ----------------------------------------------------------------------


class MemmapCostShard:
    """A cost matrix streamed from a disk-backed ``np.memmap``.

    The shard object is a cheap *handle*: it pickles as ``(path, shape,
    dtype)`` — never the data — so it can cross the
    :mod:`repro.runtime` process boundary as part of a site's state for the
    price of a filename (both sides of a :class:`ProcessPoolBackend` see the
    same local filesystem).  :attr:`matrix` opens the file read-only; writers
    go through :meth:`create` / :meth:`write_rows` / :meth:`finalize`.

    The shard never deletes its file: lifetime belongs to the owner of the
    directory it lives in (the protocol drivers use a scratch directory per
    run, removed when the run completes).
    """

    def __init__(self, path: str, shape: Tuple[int, int], dtype: str = "float64"):
        self.path = str(path)
        self.shape = (int(shape[0]), int(shape[1]))
        self.dtype = str(np.dtype(dtype))
        self._readonly: Optional[np.memmap] = None
        self._writable: Optional[np.memmap] = None

    @classmethod
    def create(
        cls,
        shape: Tuple[int, int],
        *,
        workdir: Optional[str] = None,
        dtype: str = "float64",
    ) -> "MemmapCostShard":
        """Allocate a writable shard file in ``workdir`` (or the system tempdir)."""
        directory = workdir or tempfile.gettempdir()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"cost-shard-{uuid.uuid4().hex}.npy")
        shard = cls(path, shape, dtype)
        shard._writable = np.memmap(path, dtype=shard.dtype, mode="w+", shape=shard.shape)
        return shard

    def write_rows(self, row_slice: slice, values: np.ndarray) -> None:
        """Fill a row block of a shard opened with :meth:`create`."""
        if self._writable is None:
            raise RuntimeError("shard is not open for writing (use MemmapCostShard.create)")
        self._writable[row_slice] = values

    def finalize(self) -> np.memmap:
        """Flush writes and reopen the shard read-only; returns :attr:`matrix`."""
        if self._writable is not None:
            self._writable.flush()
            self._writable = None
        return self.matrix

    @property
    def matrix(self) -> np.memmap:
        """The cost matrix as a read-only, lazily-paged ``np.memmap``."""
        if self._readonly is None:
            self._readonly = np.memmap(self.path, dtype=self.dtype, mode="r", shape=self.shape)
        return self._readonly

    @property
    def nbytes(self) -> int:
        """Size of the full matrix on disk."""
        return self.shape[0] * self.shape[1] * np.dtype(self.dtype).itemsize

    def unlink(self) -> None:
        """Delete the backing file (only the directory owner should call this)."""
        self._readonly = None
        self._writable = None
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __reduce__(self):
        # Handle-only pickling: a shard crossing a transport/process boundary
        # costs a filename, not an n x n payload.
        return (MemmapCostShard, (self.path, self.shape, self.dtype))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemmapCostShard(path={self.path!r}, shape={self.shape})"


_TRANSPORT_SPILL_DIR: Optional[str] = None


def transport_spill_dir() -> str:
    """Process-lifetime scratch directory for transport-time shard spills.

    Objects that convert a dense matrix into a :class:`MemmapCostShard`
    handle while being *pickled* (e.g. ``SitePreclustering.__getstate__``)
    have no protocol-run scratch directory in scope — pickling can happen
    anywhere.  They spill here instead: one lazily created directory per
    process, removed when the process exits.  The removal is a
    ``multiprocessing`` finalizer rather than an ``atexit`` hook because a
    process-pool worker leaves through ``os._exit``, which skips ``atexit``
    but still runs these finalizers.  Both sides of every runtime backend
    share the local filesystem, and memmaps opened before the removal stay
    readable on POSIX (the inode lives until unmapped).
    """
    global _TRANSPORT_SPILL_DIR
    if _TRANSPORT_SPILL_DIR is None:
        _TRANSPORT_SPILL_DIR = tempfile.mkdtemp(prefix="repro-transport-spill-")
        Finalize(
            None, shutil.rmtree, args=(_TRANSPORT_SPILL_DIR,),
            kwargs={"ignore_errors": True}, exitpriority=0,
        )
    return _TRANSPORT_SPILL_DIR


@contextmanager
def shard_scratch(memory_budget: Optional[int]) -> Iterator[Optional[str]]:
    """Per-run scratch directory for spilled cost shards.

    Yields ``None`` when no budget is set (nothing will spill), otherwise a
    fresh temporary directory that is removed — shards and all — when the
    block exits.  Memmaps opened from the directory stay readable after the
    removal on POSIX (the inode lives until unmapped), so cleanup is safe
    even while results are still being assembled.
    """
    workdir = tempfile.mkdtemp(prefix="repro-shards-") if memory_budget is not None else None
    try:
        yield workdir
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def memmap_handle(array: np.ndarray) -> Optional[Tuple[str, Tuple[int, int], str]]:
    """The ``(path, shape, dtype)`` handle behind a memmap-backed array, if any.

    Only *whole-file* mappings are representable as a handle: for a sliced or
    otherwise offset view of a memmap the function returns ``None`` (instead
    of a handle that would silently reopen the wrong rows), so callers fall
    back to pickling the data itself.
    """
    candidate = array
    while candidate is not None:
        if isinstance(candidate, np.memmap) and isinstance(candidate.filename, str):
            # Reopening by (path, shape, dtype) reproduces the array iff it
            # is a contiguous map of the entire file from byte 0: a sliced
            # view has fewer bytes than the file and is rejected.
            try:
                file_size = os.path.getsize(candidate.filename)
            except OSError:
                return None
            if not array.flags["C_CONTIGUOUS"] or array.nbytes != file_size:
                return None
            return candidate.filename, tuple(array.shape), str(array.dtype)
        candidate = getattr(candidate, "base", None)
    return None


def open_memmap(path: str, shape: Tuple[int, int], dtype: str = "float64") -> np.memmap:
    """Reopen a shard file read-only (the inverse of :func:`memmap_handle`)."""
    return MemmapCostShard(path, shape, dtype).matrix


def materialize_rows(
    block_fn: Callable[[slice], np.ndarray],
    n_rows: int,
    n_cols: int,
    *,
    memory_budget: MemoryBudgetLike = None,
    workdir: Optional[str] = None,
    dtype: str = "float64",
) -> np.ndarray:
    """Build an ``(n_rows, n_cols)`` matrix from row blocks under a budget.

    ``block_fn(row_slice)`` must return the rows ``row_slice`` of the result;
    it is the caller's tiling-invariant kernel (every row is produced with
    the same column width regardless of budget, so results are bit-identical
    across budgets).  With ``memory_budget=None`` the matrix is built in one
    call and returned as a plain array.  With a budget, rows are produced in
    blocks of at most ``memory_budget`` bytes (never less than one row) and —
    when the *result itself* exceeds the budget — streamed into a
    :class:`MemmapCostShard`, whose read-only memmap is returned.
    """
    budget = resolve_memory_budget(memory_budget)
    if budget is None:
        out = np.asarray(block_fn(slice(0, n_rows)), dtype=dtype)
        if out.shape != (n_rows, n_cols):
            raise ValueError(f"block_fn returned shape {out.shape}, expected {(n_rows, n_cols)}")
        return out
    itemsize = np.dtype(dtype).itemsize
    row_bytes = max(1, n_cols * itemsize)
    row_chunk = max(1, budget // row_bytes)
    total_bytes = n_rows * n_cols * itemsize
    shard = None
    if total_bytes > budget:
        shard = MemmapCostShard.create((n_rows, n_cols), workdir=workdir, dtype=dtype)
        collector = active_collector()
        if collector is not None:
            collector.inc("blocked.spills")
            collector.inc("blocked.spill_bytes", total_bytes)
    else:
        out = np.empty((n_rows, n_cols), dtype=dtype)
    for r0 in range(0, n_rows, row_chunk):
        rs = slice(r0, min(r0 + row_chunk, n_rows))
        block = block_fn(rs)
        if shard is not None:
            shard.write_rows(rs, block)
        else:
            out[rs] = block
    if shard is not None:
        return shard.finalize()
    return out


def materialize(
    source: Any,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    transform: Optional[Callable[[np.ndarray, slice], np.ndarray]] = None,
    memory_budget: MemoryBudgetLike = None,
    workdir: Optional[str] = None,
) -> np.ndarray:
    """Materialise ``rows x cols`` of a block source, spilling to disk on demand.

    ``transform(block, row_slice)`` — applied to each row block before it is
    stored — must be elementwise/row-local (e.g. squaring for the means
    objective, adding per-row collapse offsets) so the result stays
    bit-identical across budgets.
    """
    n_rows_total, n_cols_total = _source_shape(source)
    row_idx = _resolve_axis(source, rows, n_rows_total)
    col_idx = _resolve_axis(source, cols, n_cols_total)

    def block_fn(rs: slice) -> np.ndarray:
        block = _get_block(source, row_idx[rs], col_idx)
        if transform is not None:
            block = transform(block, rs)
        return block

    return materialize_rows(
        block_fn,
        row_idx.size,
        col_idx.size,
        memory_budget=memory_budget,
        workdir=workdir,
    )


__all__ = [
    "DEFAULT_CACHE_TARGET",
    "DEFAULT_REDUCTION_BUDGET",
    "MemoryBudgetLike",
    "MemmapCostShard",
    "argmin_per_row",
    "as_block_source",
    "contiguous_slice",
    "count_within",
    "effective_tile_bytes",
    "iter_blocks",
    "materialize",
    "materialize_rows",
    "memmap_handle",
    "open_memmap",
    "read_block",
    "reduce_max",
    "reduce_min_per_row",
    "reduce_min_positive",
    "resolve_memory_budget",
    "shard_scratch",
    "transport_spill_dir",
]
