"""Random-number-generator plumbing.

Every stochastic routine in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` and normalises it through
:func:`ensure_rng`.  Experiments are therefore reproducible end to end by
passing a single seed at the top.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like value.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, n: int) -> Sequence[np.random.Generator]:
    """Spawn ``n`` statistically independent generators from one seed.

    Used by the coordinator-model simulator to hand every site its own
    generator so that per-site computations are order-independent.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the generator's own stream.
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


__all__ = ["RngLike", "ensure_rng", "spawn_rngs"]
