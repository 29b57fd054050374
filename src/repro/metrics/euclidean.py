"""Euclidean metric over a point cloud in R^d."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.metrics.base import MetricSpace
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

    :meth:`pairwise` is the one distance kernel: :meth:`distances_from` is
    inherited, so a traversal sweep is the one-row block.  (A row kernel such
    as ``einsum`` over the differences sums in another order and changes the
    last bit from ``d = 3`` on.)  So :meth:`restrict` can hand a site a copy of
    its own rows, and every distance the site computes is bit-identical to
    the global metric's.
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

    def restrict(self, indices: Sequence[int]) -> "EuclideanMetric":
        """A standalone metric over copies of the rows ``indices``."""
        return EuclideanMetric(self._points[self.validate_indices(indices)])


__all__ = ["EuclideanMetric"]
