"""Input validation helpers shared across the library."""

from __future__ import annotations

from typing import Any

import numpy as np


def check_positive_int(value: Any, name: str, *, allow_zero: bool = False) -> int:
    """Validate that ``value`` is a (non-negative / positive) integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    low = 0 if allow_zero else 1
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_k_t(n: int, k: int, t: int) -> tuple:
    """Validate clustering parameters against the instance size.

    Mirrors Definition 1.1 of the paper: ``1 <= k <= n`` and ``0 <= t <= n``.
    ``k + t <= n`` is additionally required so that at least one point remains
    to be clustered by a non-center (the degenerate case ``k + t >= n`` is
    trivially solvable and callers should short-circuit it).
    """
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    t = check_positive_int(t, "t", allow_zero=True)
    if k > n:
        raise ValueError(f"k ({k}) must not exceed the number of points ({n})")
    if t > n:
        raise ValueError(f"t ({t}) must not exceed the number of points ({n})")
    return n, k, t


def check_probability_vector(p: np.ndarray, name: str = "probabilities") -> np.ndarray:
    """Validate that ``p`` is a probability vector; returns it normalised as float64."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {p.shape}")
    if p.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(p < 0):
        raise ValueError(f"{name} must be non-negative")
    total = float(p.sum())
    if total <= 0:
        raise ValueError(f"{name} must have positive mass")
    if not np.isclose(total, 1.0, rtol=0, atol=1e-6):
        p = p / total
    return p


def check_points_array(points: np.ndarray, name: str = "points") -> np.ndarray:
    """Validate a 2-D float array of points (rows = points, columns = coordinates)."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one point")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


__all__ = [
    "check_positive_int",
    "check_k_t",
    "check_probability_vector",
    "check_points_array",
]
