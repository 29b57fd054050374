"""Objective evaluation for uncertain clusterings.

The median, means and center-pp objectives (Equations (1) and (2) of the
paper) are sums / maxima of *per-node expectations*, so they can be computed
exactly from the nodes' distributions.  The center-g objective (Equation (3))
is an expectation of a maximum over the joint realization and does not
decompose; it is estimated by Monte-Carlo sampling of joint realizations.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.uncertain.instance import UncertainInstance
from repro.utils.rng import RngLike, ensure_rng


def _served_nodes(instance: UncertainInstance, assignment: Dict[int, int]) -> np.ndarray:
    nodes = np.asarray(sorted(assignment.keys()), dtype=int)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= instance.n_nodes):
        raise ValueError("assignment refers to nodes outside the instance")
    return nodes


def exact_assigned_cost(
    instance: UncertainInstance,
    assignment: Dict[int, int],
    objective: str = "median",
) -> float:
    """Exact cost of an assigned clustering for median / means / center-pp.

    Parameters
    ----------
    instance:
        The uncertain instance.
    assignment:
        Mapping ``node index -> ground point index`` (the paper's ``pi``)
        covering exactly the non-outlier nodes.
    objective:
        ``"median"``, ``"means"`` or ``"center"`` (interpreted as center-pp).
    """
    objective = str(objective).lower()
    nodes = _served_nodes(instance, assignment)
    if nodes.size == 0:
        return 0.0
    per_node = np.empty(nodes.size, dtype=float)
    for row, j in enumerate(nodes):
        node = instance.nodes[int(j)]
        target = [int(assignment[int(j)])]
        if objective == "means":
            per_node[row] = node.expected_sq_distances(instance.ground_metric, target)[0]
        else:
            per_node[row] = node.expected_distances(instance.ground_metric, target)[0]
    if objective == "center":
        return float(per_node.max())
    return float(per_node.sum())


def sample_realizations(
    instance: UncertainInstance, n_samples: int, rng: RngLike = None
) -> np.ndarray:
    """``(n_samples, n_nodes)`` matrix of joint realizations (ground-point indices)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    generator = ensure_rng(rng)
    out = np.empty((n_samples, instance.n_nodes), dtype=int)
    for j, node in enumerate(instance.nodes):
        out[:, j] = node.sample(generator, size=n_samples)
    return out


def estimate_center_g_cost(
    instance: UncertainInstance,
    assignment: Dict[int, int],
    n_samples: int = 200,
    rng: RngLike = None,
    realizations: Optional[np.ndarray] = None,
) -> float:
    """Monte-Carlo estimate of the center-g objective ``E[max_j d(sigma(j), pi(j))]``.

    Parameters
    ----------
    instance, assignment:
        As in :func:`exact_assigned_cost`; outlier nodes are simply absent
        from ``assignment``.
    n_samples:
        Number of joint realizations sampled (ignored when ``realizations``
        is given).
    realizations:
        Optional pre-sampled ``(n_samples, n_nodes)`` realization matrix so
        that several candidate solutions can be compared on identical
        randomness (paired estimation).
    """
    nodes = _served_nodes(instance, assignment)
    if nodes.size == 0:
        return 0.0
    if realizations is None:
        realizations = sample_realizations(instance, n_samples, rng)
    if realizations.shape[1] != instance.n_nodes:
        raise ValueError("realizations must have one column per node of the instance")

    centers = np.asarray([int(assignment[int(j)]) for j in nodes], dtype=int)
    maxima = np.zeros(realizations.shape[0], dtype=float)
    metric = instance.ground_metric
    for j, center in zip(nodes, centers):
        realized = realizations[:, int(j)]
        # Distance from each realization of node j to its fixed center.
        unique_points, inverse = np.unique(realized, return_inverse=True)
        dists = metric.pairwise(unique_points, [center])[:, 0]
        np.maximum(maxima, dists[inverse], out=maxima)
    return float(maxima.mean())


__all__ = ["exact_assigned_cost", "sample_realizations", "estimate_center_g_cost"]
