"""Metric backed by an explicit pairwise distance matrix."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.metrics.blocked import contiguous_slice


class MatrixMetric(MetricSpace):
    """A finite metric given by a dense, symmetric distance matrix.

    The constructor validates finiteness, symmetry and zero diagonal; the
    (optional) triangle-inequality check is quadratic per point and therefore
    off by default, but exposed for tests.

    Aliasing contract: :meth:`full_matrix`, the :attr:`matrix` property and
    :meth:`pairwise` (for contiguous index ranges) return **read-only views**
    of the metric's own buffer — no ``n x n`` copy is ever made for them.
    The buffer is marked non-writable at construction, so accidental
    mutation through a view raises instead of silently corrupting the
    metric.  Callers that need a private writable copy must ``.copy()``.
    """

    def __init__(self, matrix: np.ndarray, *, words_per_point: int = 1, validate: bool = True):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {mat.shape}")
        if validate:
            # First: allclose(inf, inf) holds, and a NaN would read as asymmetric.
            if not np.all(np.isfinite(mat)):
                raise ValueError("distances must be finite (no inf or NaN entries)")
            if not np.allclose(np.diag(mat), 0.0, atol=1e-9):
                raise ValueError("distance matrix must have zero diagonal")
            if not np.allclose(mat, mat.T, atol=1e-9):
                raise ValueError("distance matrix must be symmetric")
            if np.any(mat < -1e-12):
                raise ValueError("distances must be non-negative")
        self._matrix = np.maximum(mat, 0.0)
        self._matrix.setflags(write=False)
        self._words = int(words_per_point)

    def __len__(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The full distance matrix (read-only; aliases the metric's buffer)."""
        return self._matrix

    @property
    def words_per_point(self) -> int:
        return self._words

    def distance(self, i: int, j: int) -> float:
        return float(self._matrix[i, j])

    def pairwise(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        # Contiguous ranges — the shape blocked tiles take — are served as
        # zero-copy (read-only) views of the stored matrix.
        row_rng, col_rng = contiguous_slice(rows), contiguous_slice(cols)
        if row_rng is not None and col_rng is not None:
            return self._matrix[row_rng, col_rng]
        if row_rng is not None:
            return self._matrix[row_rng][:, cols]
        return self._matrix[np.ix_(rows, cols)]

    def full_matrix(self) -> np.ndarray:
        """The whole matrix as a read-only view (no copy; see the class docstring)."""
        return self._matrix

    def check_triangle_inequality(self, atol: float = 1e-8) -> bool:
        """Exhaustively verify the triangle inequality (O(n^3); tests only)."""
        m = self._matrix
        n = m.shape[0]
        for mid in range(n):
            # d(i, j) <= d(i, mid) + d(mid, j) for all i, j
            if np.any(m > m[:, [mid]] + m[[mid], :] + atol):
                return False
        return True


__all__ = ["MatrixMetric"]
