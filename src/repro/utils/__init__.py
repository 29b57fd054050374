"""Small shared utilities: RNG handling, validation, timing.

These helpers are deliberately dependency-light so every other subpackage can
import them without risk of circular imports.
"""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.timing import Timer, timed
from repro.utils.validation import (
    check_k_t,
    check_positive_int,
    check_probability_vector,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "timed",
    "check_k_t",
    "check_positive_int",
    "check_probability_vector",
]
