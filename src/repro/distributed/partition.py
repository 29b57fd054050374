"""Data partitioners: how the input is split across sites.

The paper's bounds hold for *any* adversarial partition; the benchmark
harness therefore exercises several regimes:

* balanced random shards (the ``n_i ~ n/s`` case the running-time claims use),
* skewed shards drawn from a Dirichlet distribution, and
* partitions that concentrate all planted outliers on a few sites (the
  worst case for naive ``t_i = t`` budget splitting).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


def _validate(n: int, s: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s < 1:
        raise ValueError(f"number of sites must be >= 1, got {s}")
    if s > n:
        raise ValueError(f"cannot split {n} points across {s} non-empty sites")


def partition_balanced(n: int, s: int, rng: RngLike = None) -> List[np.ndarray]:
    """Random partition into ``s`` shards whose sizes differ by at most one."""
    _validate(n, s)
    generator = ensure_rng(rng)
    perm = generator.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, s)]


def partition_round_robin(n: int, s: int, rng: RngLike = None) -> List[np.ndarray]:
    """Deterministic partition: point ``i`` goes to site ``i mod s``.

    ``rng`` is accepted (and ignored) so every named partitioner shares the
    ``(n, s, rng)`` signature the high-level drivers call with.
    """
    _validate(n, s)
    return [np.arange(n)[i::s] for i in range(s)]


def partition_dirichlet(
    n: int, s: int, alpha: float = 0.5, rng: RngLike = None
) -> List[np.ndarray]:
    """Skewed random partition with Dirichlet(``alpha``) shard-size proportions.

    Small ``alpha`` produces highly unbalanced shards; every shard is
    guaranteed at least one point.
    """
    _validate(n, s)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    generator = ensure_rng(rng)
    proportions = generator.dirichlet(np.full(s, alpha))
    sizes = np.maximum(1, np.floor(proportions * n).astype(int))
    # Fix rounding so sizes sum exactly to n while keeping every shard >= 1.
    while sizes.sum() > n:
        candidates = np.flatnonzero(sizes > 1)
        sizes[generator.choice(candidates)] -= 1
    while sizes.sum() < n:
        sizes[generator.integers(0, s)] += 1
    perm = generator.permutation(n)
    shards = []
    offset = 0
    for size in sizes:
        shards.append(np.sort(perm[offset : offset + size]))
        offset += size
    return shards


def partition_outliers_concentrated(
    outlier_mask: Sequence[bool],
    s: int,
    n_outlier_sites: int = 1,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Partition that places *all* outliers on the first ``n_outlier_sites`` sites.

    Inliers are spread evenly over all sites.  This is the adversarial regime
    where splitting the outlier budget uniformly (``t_i = t / s``) fails badly
    and the paper's convex-hull allocation shines.
    """
    mask = np.asarray(outlier_mask, dtype=bool)
    n = mask.size
    _validate(n, s)
    if not (1 <= n_outlier_sites <= s):
        raise ValueError(f"n_outlier_sites must be in [1, {s}], got {n_outlier_sites}")
    generator = ensure_rng(rng)
    outliers = generator.permutation(np.flatnonzero(mask))
    inliers = generator.permutation(np.flatnonzero(~mask))
    shards: List[List[int]] = [[] for _ in range(s)]
    for pos, idx in enumerate(outliers):
        shards[pos % n_outlier_sites].append(int(idx))
    for pos, idx in enumerate(inliers):
        shards[pos % s].append(int(idx))
    out = [np.sort(np.asarray(shard, dtype=int)) for shard in shards]
    for shard in out:
        if shard.size == 0:
            raise ValueError("partition produced an empty site; use fewer sites")
    return out


__all__ = [
    "partition_balanced",
    "partition_round_robin",
    "partition_dirichlet",
    "partition_outliers_concentrated",
]
