"""Lower convex hulls of local cost curves (Algorithm 1, lines 2-5).

Each site evaluates its local cost ``Csol(A_i, 2k, q)`` only at the ``O(log t)``
grid points ``q in I`` and sends the *lower convex hull* of those evaluations.
The hull induces a convex, non-increasing, piecewise-linear function
``f_i : {0, ..., t} -> R`` whose marginal decreases

    l(i, q) = f_i(q - 1) - f_i(q),   q = 1..t

are non-increasing in ``q`` — exactly the property the budget allocation
(Lemma 3.3) needs.  Taking the hull instead of the raw costs has only a mild
effect on the solution cost (Section 3) and is what makes the ``Õ(t)``
communication possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def lower_convex_hull(qs: Sequence[float], costs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Lower convex hull of the points ``{(q, cost)}``.

    Returns the hull vertices ``(hull_qs, hull_costs)`` in increasing ``q``
    order.  The input need not be sorted; duplicate ``q`` values keep their
    minimum cost.  The hull of a non-increasing cost curve is itself
    non-increasing and convex.
    """
    qs = np.asarray(qs, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if qs.shape != costs.shape or qs.ndim != 1:
        raise ValueError("qs and costs must be one-dimensional arrays of equal length")
    if qs.size == 0:
        raise ValueError("need at least one point to build a hull")

    order = np.argsort(qs, kind="stable")
    qs, costs = qs[order], costs[order]
    # Deduplicate q values keeping the cheapest cost.
    uq, inverse = np.unique(qs, return_inverse=True)
    ucost = np.full(uq.size, np.inf)
    np.minimum.at(ucost, inverse, costs)

    # Andrew's monotone chain, lower hull only.
    hull: list = []
    for x, y in zip(uq, ucost):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Keep the hull turning counter-clockwise (convex from below):
            # drop the middle point if it lies on or above the chord.
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if cross <= 1e-15 * max(1.0, abs(y1), abs(y)):
                hull.pop()
            else:
                break
        hull.append((float(x), float(y)))
    hx = np.asarray([p[0] for p in hull])
    hy = np.asarray([p[1] for p in hull])
    return hx, hy


@dataclass
class CostProfile:
    """A convex, non-increasing local cost function ``f_i`` on ``{0, ..., t}``.

    Built from hull vertices (``hull_qs``, ``hull_costs``); evaluation between
    vertices is linear interpolation and evaluation beyond the last vertex is
    constant (the local cost cannot increase when more outliers are allowed).

    The profile is also the unit of *communication*: a site transmits its
    vertices, costing ``2 * n_vertices`` words (Algorithm 1, line 5).
    """

    hull_qs: np.ndarray
    hull_costs: np.ndarray
    t_max: int

    def __post_init__(self) -> None:
        self.hull_qs = np.asarray(self.hull_qs, dtype=float)
        self.hull_costs = np.asarray(self.hull_costs, dtype=float)
        if self.hull_qs.ndim != 1 or self.hull_qs.shape != self.hull_costs.shape:
            raise ValueError("hull arrays must be one-dimensional and of equal length")
        if self.hull_qs.size == 0:
            raise ValueError("profile needs at least one hull vertex")
        if np.any(np.diff(self.hull_qs) <= 0):
            raise ValueError("hull q values must be strictly increasing")
        if self.t_max < 0:
            raise ValueError(f"t_max must be non-negative, got {self.t_max}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_evaluations(
        cls, qs: Sequence[float], costs: Sequence[float], t_max: int
    ) -> "CostProfile":
        """Build the profile from raw ``(q, Csol(A_i, 2k, q))`` evaluations."""
        hx, hy = lower_convex_hull(qs, costs)
        return cls(hull_qs=hx, hull_costs=hy, t_max=int(t_max))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of hull vertices."""
        return int(self.hull_qs.size)

    @property
    def words(self) -> float:
        """Words needed to transmit the profile (one ``(q, cost)`` pair per vertex)."""
        return float(2 * self.n_vertices)

    def evaluate(self, q) -> np.ndarray:
        """``f_i(q)`` by linear interpolation (constant beyond the last vertex)."""
        q = np.asarray(q, dtype=float)
        return np.interp(q, self.hull_qs, self.hull_costs)

    def __call__(self, q):
        scalar = np.isscalar(q)
        out = self.evaluate(q)
        return float(out) if scalar else out

    def marginals(self) -> np.ndarray:
        """The marginal gains ``l(i, q) = f_i(q-1) - f_i(q)`` for ``q = 1..t_max``.

        Non-negative and non-increasing by convexity; clipped at zero against
        floating-point noise.
        """
        if self.t_max == 0:
            return np.empty(0, dtype=float)
        values = self.evaluate(np.arange(self.t_max + 1))
        return np.maximum(values[:-1] - values[1:], 0.0)

    # ------------------------------------------------------------------
    # Vertex queries (Lemma 3.4 / Algorithm 1 line 13)
    # ------------------------------------------------------------------

    def is_vertex(self, q: float, atol: float = 1e-9) -> bool:
        """True if ``q`` coincides with a hull vertex (so ``f_i(q)`` equals a real local solve)."""
        return bool(np.any(np.abs(self.hull_qs - q) <= atol))

    def snap_up_to_vertex(self, q: float) -> float:
        """Smallest hull vertex ``>= q`` (or the largest vertex if none is bigger).

        This is the Algorithm 1, line 13 adjustment for the exceptional site:
        its allocated ``t_i`` may fall strictly inside a hull segment, where
        ``f_i`` is an interpolation rather than an actually computed solution,
        so it rounds up to the next computed grid point.
        """
        candidates = self.hull_qs[self.hull_qs >= q - 1e-9]
        if candidates.size == 0:
            return float(self.hull_qs[-1])
        return float(candidates[0])

    def snap_down_to_vertex(self, q: float) -> float:
        """Largest hull vertex ``<= q`` (or the smallest vertex if none is smaller)."""
        candidates = self.hull_qs[self.hull_qs <= q + 1e-9]
        if candidates.size == 0:
            return float(self.hull_qs[0])
        return float(candidates[-1])

    def bracketing_vertices(self, q: float) -> Tuple[float, float]:
        """The hull vertices immediately below and above ``q`` (Theorem 3.8's ``t_{i,1}, t_{i,2}``)."""
        return self.snap_down_to_vertex(q), self.snap_up_to_vertex(q)


__all__ = ["CostProfile", "lower_convex_hull"]
