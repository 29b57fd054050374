"""Euclidean metric over a point cloud in R^d."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.metrics.base import MetricSpace, RowKernel
from repro.metrics.blocked import contiguous_slice
from repro.utils.validation import check_points_array


def _take_rows(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Rows of ``points`` — a *view* when ``indices`` is a contiguous run.

    Blocked evaluation walks contiguous index ranges, so the common tile
    avoids the gather copy entirely.  Callers must treat the result as
    read-only (it may alias the metric's own coordinate buffer).
    """
    rng = contiguous_slice(indices)
    if rng is not None:
        return points[rng]
    return points[indices]


class EuclideanMetric(MetricSpace):
    """Points in R^d under the Euclidean (L2) distance.

    This is the paper's canonical metric: each point costs ``d`` machine
    words to transmit (``words_per_point``).

    Distance blocks are computed with a per-dimension accumulation,
    ``sum_dim (a_dim - b_dim)^2``, instead of the classic
    ``a^2 + b^2 - 2ab`` BLAS expansion.  The per-dimension kernel is
    *tiling-invariant*: every entry of a block is produced by the same
    sequence of scalar operations regardless of the block's shape, so a
    sub-block equals the corresponding slice of the full matrix bit for bit.
    (BLAS matmul is not shape-stable — its reduction blocking changes with
    the panel size — which would break the blocked layer's bit-identical
    guarantee.)  The difference form is also immune to the cancellation the
    expansion suffers for near-duplicate points, and identical points get an
    exact zero without post-hoc masking.

    :meth:`pairwise` is the one distance formula.  :meth:`distances_from`
    is inherited (the one-row block), and :meth:`row_kernel` gathers its
    columns' coordinates once, transposed, and applies the same subtract,
    square, accumulate (in dimension order) and ``sqrt`` to one row at a
    time, so ``row(i)`` equals ``pairwise([i], cols)[0]`` bit for bit.
    The formula is symmetric to the last bit (``a - b`` is exactly
    ``-(b - a)``), so the kernel's ``column(j)`` is its ``row(j)``.  Any
    other summation order, such as ``einsum`` over the differences,
    changes the last bit from ``d = 3`` on.  So :meth:`restrict` can hand
    a site a copy of its own rows, and every distance the site computes is
    bit-identical to the global metric's.
    """

    def __init__(self, points: np.ndarray):
        self._points = check_points_array(points, "points")

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        """The underlying ``(n, d)`` coordinate array (read-only view)."""
        return self._points

    @property
    def dim(self) -> int:
        """Ambient dimension ``d``."""
        return self._points.shape[1]

    @property
    def words_per_point(self) -> int:
        return self._points.shape[1]

    def distance(self, i: int, j: int) -> float:
        diff = self._points[i] - self._points[j]
        return float(np.sqrt(np.dot(diff, diff)))

    def pairwise(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        a = _take_rows(self._points, rows)
        b = _take_rows(self._points, cols)
        sq = np.zeros((a.shape[0], b.shape[0]), dtype=float)
        for dim in range(self._points.shape[1]):
            diff = a[:, dim][:, None] - b[None, :, dim]
            diff *= diff
            sq += diff
        return np.sqrt(sq, out=sq)

    def row_kernel(self, cols: Sequence[int]) -> RowKernel:
        """A kernel holding ``cols``' coordinates, one row per dimension."""
        if self.dim == 0:
            return RowKernel(self, cols)
        return _EuclideanRowKernel(self, cols)

    def restrict(self, indices: Sequence[int]) -> "EuclideanMetric":
        """A standalone metric over copies of the rows ``indices``."""
        return EuclideanMetric(self._points[self.validate_indices(indices)])


class _EuclideanRowKernel(RowKernel):
    """:class:`RowKernel` over a gathered ``(d, len(cols))`` coordinate block.

    A row starts from the first dimension's square instead of
    ``pairwise``'s zeros: ``0.0 + x`` is ``x`` for every square ``x``.
    """

    def __init__(self, metric: EuclideanMetric, cols: Sequence[int]):
        super().__init__(metric, cols)
        self._points = metric.points
        self._coords = np.ascontiguousarray(_take_rows(self._points, self.cols).T)
        self._diff = np.empty(self.cols.size)

    def row(self, i: int) -> np.ndarray:
        point, coords, diff = self._points[i], self._coords, self._diff
        sq = np.subtract(point[0], coords[0])
        sq *= sq
        for dim in range(1, coords.shape[0]):
            np.subtract(point[dim], coords[dim], out=diff)
            diff *= diff
            sq += diff
        return np.sqrt(sq, out=sq)

    column = row


__all__ = ["EuclideanMetric"]
