"""Abstract metric-space interface.

A *point* is an integer index ``0 <= i < len(metric)``.  The interface is
deliberately tiny — ``distance`` for a single pair and ``pairwise`` for a
vectorised block — because every clustering routine in the library is written
against these two calls.  A :class:`RowKernel` (``metric.row_kernel(cols)``)
serves one-row sweeps against a fixed point set, bit for bit the rows and
columns of ``pairwise``.  ``words_per_point`` models the paper's ``B``
parameter (the number of machine words needed to transmit one point), which
the coordinator-model simulator uses for communication accounting.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.metrics.blocked import (
    DEFAULT_REDUCTION_BUDGET,
    MemoryBudgetLike,
    reduce_max,
    reduce_min_positive,
)


class MetricSpace(abc.ABC):
    """A finite metric space whose points are addressed by integer index."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of points in the space."""

    @abc.abstractmethod
    def distance(self, i: int, j: int) -> float:
        """Distance between points ``i`` and ``j``."""

    @abc.abstractmethod
    def pairwise(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Block of distances, shape ``(len(rows), len(cols))``."""

    # ------------------------------------------------------------------
    # Derived helpers with sensible default implementations.
    # ------------------------------------------------------------------

    @property
    def words_per_point(self) -> int:
        """Number of machine words needed to transmit one point (the paper's ``B``)."""
        return 1

    def distances_from(self, i: int, cols: Sequence[int]) -> np.ndarray:
        """Distances from a single point ``i`` to every index in ``cols``."""
        return self.pairwise([i], cols)[0]

    def row_kernel(self, cols: Sequence[int]) -> "RowKernel":
        """A :class:`RowKernel` over the fixed point set ``cols``.

        The default reads through :meth:`distances_from` and
        :meth:`pairwise`; a metric whose per-call index work dominates a
        one-row sweep overrides this to prepare ``cols`` once.
        """
        return RowKernel(self, cols)

    def full_matrix(self) -> np.ndarray:
        """Dense ``n x n`` distance matrix.  Only appropriate for small spaces."""
        idx = np.arange(len(self))
        return self.pairwise(idx, idx)

    def diameter(
        self,
        indices: Optional[Sequence[int]] = None,
        *,
        memory_budget: MemoryBudgetLike = None,
    ) -> float:
        """Maximum pairwise distance over ``indices`` (default: all points).

        Evaluated as a blocked reduction — never more than ``memory_budget``
        bytes (default :data:`~repro.metrics.blocked.DEFAULT_REDUCTION_BUDGET`)
        of the distance matrix exist at a time, and the value is bit-identical
        for every budget.
        """
        idx = np.arange(len(self)) if indices is None else np.asarray(indices, dtype=int)
        if idx.size <= 1:
            return 0.0
        budget = DEFAULT_REDUCTION_BUDGET if memory_budget is None else memory_budget
        return reduce_max(self, idx, idx, memory_budget=budget)

    def min_positive_distance(
        self,
        indices: Optional[Sequence[int]] = None,
        *,
        memory_budget: MemoryBudgetLike = None,
    ) -> float:
        """Minimum non-zero pairwise distance over ``indices`` (default: all points).

        Returns 0.0 when all points coincide.  Used for the ``Delta``
        (spread) parameter of Algorithm 4.  Blocked like :meth:`diameter`:
        ``O(budget)`` transient memory, budget-independent value.
        """
        idx = np.arange(len(self)) if indices is None else np.asarray(indices, dtype=int)
        if idx.size <= 1:
            return 0.0
        budget = DEFAULT_REDUCTION_BUDGET if memory_budget is None else memory_budget
        return reduce_min_positive(self, idx, idx, memory_budget=budget)

    def spread(
        self,
        indices: Optional[Sequence[int]] = None,
        *,
        memory_budget: MemoryBudgetLike = None,
    ) -> float:
        """The aspect ratio ``Delta = d_max / d_min`` of the (sub-)space."""
        dmin = self.min_positive_distance(indices, memory_budget=memory_budget)
        if dmin == 0.0:
            return 1.0
        return self.diameter(indices, memory_budget=memory_budget) / dmin

    def subset(self, indices: Sequence[int]) -> "SubsetMetric":
        """A view of this metric restricted to ``indices`` (re-indexed from 0)."""
        return SubsetMetric(self, indices)

    def restrict(self, indices: Sequence[int]) -> "MetricSpace":
        """This metric restricted to ``indices`` (re-indexed from 0), as a site holds it.

        Point ``i`` of the result is point ``indices[i]`` here, and every
        distance is bit-identical to this metric's.  Unlike :meth:`subset`,
        the result need not reference this metric: a metric that can copy
        out the data of just those points returns a standalone metric, so
        what pickles is ``O(len(indices))`` rather than the whole space.
        The default is the :class:`SubsetMetric` view.
        """
        return SubsetMetric(self, indices)

    def validate_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Check that ``indices`` are valid point indices and return them as an array."""
        idx = np.asarray(indices, dtype=int)
        n = len(self)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(
                f"point indices must lie in [0, {n}), got range "
                f"[{idx.min()}, {idx.max()}]"
            )
        return idx


class RowKernel:
    """One-row distance sweeps against a fixed point set ``cols``.

    Bitwise contract, for every point ``i`` and ``j`` of the metric:

    * ``row(i)`` is ``metric.pairwise([i], cols)[0]``, the distances from
      ``i`` to ``cols``;
    * ``column(j)`` is ``metric.pairwise(cols, [j])[:, 0]``, the distances
      from ``cols`` to ``j``.

    The two reads are each other's transpose, and they are kept apart
    because a metric need not be symmetric to the last bit: a graph
    metric's all-pairs Dijkstra is not, and :class:`MatrixMetric` checks
    symmetry only to ``1e-9``.  A caller reads the orientation its
    reference reads.  Each read returns ``len(cols)`` values, which may be
    a read-only view of the metric's storage: copy before writing.
    """

    def __init__(self, metric: MetricSpace, cols: Sequence[int]):
        self.metric = metric
        self.cols = np.asarray(cols, dtype=int)

    def row(self, i: int) -> np.ndarray:
        """Distances from point ``i`` to every point of ``cols``."""
        return self.metric.distances_from(i, self.cols)

    def column(self, j: int) -> np.ndarray:
        """Distances from every point of ``cols`` to point ``j``."""
        return self.metric.pairwise(self.cols, [j])[:, 0]

    def nearest(self, candidates: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Per point of ``cols``: the distance to its nearest candidate and
        that candidate's position in ``candidates``.

        Bit for bit ``argmin_per_row(metric, cols, candidates)``: one
        :meth:`column` sweep per candidate, in order, where only a strictly
        smaller value displaces the incumbent, which is ``np.argmin``'s
        first-occurrence rule.  Transient memory is ``O(len(cols))``.
        """
        values = np.full(self.cols.size, np.inf)
        positions = np.zeros(self.cols.size, dtype=int)
        for pos, candidate in enumerate(np.asarray(candidates, dtype=int).tolist()):
            dist = self.column(candidate)
            closer = dist < values
            np.copyto(values, dist, where=closer)
            np.copyto(positions, pos, where=closer)
        return values, positions


class SubsetMetric(MetricSpace):
    """A re-indexed view of a parent metric restricted to a subset of points.

    Point ``i`` of the subset corresponds to ``indices[i]`` of the parent.
    Useful for treating a site's shard as a standalone metric space while the
    data itself stays in the global space.
    """

    def __init__(self, parent: MetricSpace, indices: Sequence[int]):
        self._parent = parent
        self._indices = parent.validate_indices(indices)

    def __len__(self) -> int:
        return int(self._indices.size)

    @property
    def parent(self) -> MetricSpace:
        """The underlying global metric."""
        return self._parent

    @property
    def indices(self) -> np.ndarray:
        """Parent indices of the subset, in subset order."""
        return self._indices

    @property
    def words_per_point(self) -> int:
        return self._parent.words_per_point

    def distance(self, i: int, j: int) -> float:
        return self._parent.distance(int(self._indices[i]), int(self._indices[j]))

    def pairwise(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        rows = self._indices[np.asarray(rows, dtype=int)]
        cols = self._indices[np.asarray(cols, dtype=int)]
        return self._parent.pairwise(rows, cols)


__all__ = ["MetricSpace", "RowKernel", "SubsetMetric"]
