"""Discrete uncertain nodes over a finite ground point set ``P``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.metrics.base import MetricSpace
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_probability_vector


@dataclass
class UncertainNode:
    """A node ``j`` whose realization ``sigma(j)`` follows a discrete distribution.

    Attributes
    ----------
    support:
        Ground-point indices with positive probability.
    probabilities:
        Probability of each support point (normalised to sum to one).
    name:
        Optional identifier used by reports.
    """

    support: np.ndarray
    probabilities: np.ndarray
    name: Optional[str] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.support = np.asarray(self.support, dtype=int)
        self.probabilities = check_probability_vector(self.probabilities, "probabilities")
        if self.support.ndim != 1:
            raise ValueError(f"support must be one-dimensional, got shape {self.support.shape}")
        if self.support.shape != self.probabilities.shape:
            raise ValueError(
                "support and probabilities must have the same length, got "
                f"{self.support.shape} vs {self.probabilities.shape}"
            )
        if np.unique(self.support).size != self.support.size:
            raise ValueError("support points must be distinct")

    # ------------------------------------------------------------------

    @property
    def support_size(self) -> int:
        """Number of support points ``m`` of the distribution."""
        return int(self.support.size)

    def encoding_words(self, words_per_point: int = 1) -> float:
        """The paper's ``I``: words needed to transmit the node's distribution.

        Each support point costs ``B`` words (its coordinates / identifier)
        plus one word for its probability.
        """
        return float(self.support_size * (words_per_point + 1))

    # ------------------------------------------------------------------
    # Expected distances
    # ------------------------------------------------------------------

    def expected_distances(
        self, metric: MetricSpace, points: Sequence[int]
    ) -> np.ndarray:
        """``d_hat(j, u) = E[d(sigma(j), u)]`` for every ``u`` in ``points``."""
        block = metric.pairwise(self.support, points)
        return self.probabilities @ block

    def expected_sq_distances(
        self, metric: MetricSpace, points: Sequence[int]
    ) -> np.ndarray:
        """``E[d^2(sigma(j), u)]`` for every ``u`` in ``points`` (means objective)."""
        block = metric.pairwise(self.support, points)
        return self.probabilities @ (block * block)

    def expected_truncated_distances(
        self, metric: MetricSpace, points: Sequence[int], tau: float
    ) -> np.ndarray:
        """``rho_tau(j, u) = E[max{d(sigma(j), u) - tau, 0}]`` (Definition 5.7)."""
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        block = metric.pairwise(self.support, points)
        return self.probabilities @ np.maximum(block - tau, 0.0)

    def expected_distance(self, metric: MetricSpace, point: int) -> float:
        """``E[d(sigma(j), u)]`` for a single ground point."""
        return float(self.expected_distances(metric, [point])[0])

    # ------------------------------------------------------------------
    # Sampling and moments
    # ------------------------------------------------------------------

    def sample(self, rng: RngLike = None, size: Optional[int] = None):
        """Sample realizations ``sigma(j)`` (ground-point indices)."""
        generator = ensure_rng(rng)
        drawn = generator.choice(self.support, size=size, p=self.probabilities)
        return drawn if size is not None else int(drawn)

    @classmethod
    def deterministic(cls, point: int, name: Optional[str] = None) -> "UncertainNode":
        """A node that always realises to a single ground point."""
        return cls(support=np.asarray([point]), probabilities=np.asarray([1.0]), name=name)


__all__ = ["UncertainNode"]
