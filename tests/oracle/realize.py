"""Reference output realizations: the coordinator-side loops that
:func:`repro.core.combine.realize_output` replaced.

Both take global ids and a coordinator solution whose demands are, per
site, one demand per center and then one per shipped point.  Each site is
a ``(centers, members, shipped)`` triple:

* :func:`realize_members_reference` is the member-dict realization Algorithms
  1 and 2 and the one-round baseline used: ``members`` maps each global
  center id to ``(member ids, member distances)`` in index order, and a
  center demand with ``d`` units dropped drops the ``round(d)`` farthest
  members (a stable sort, so ties go by index).  Algorithm 3 used the same
  rule with its compressed-graph costs as the distances.
* :func:`realize_whole_or_nothing_reference` is center-g's loop: ``members``
  lists each center's member ids, and a center demand is dropped whole when
  it is unassigned or its dropped weight reaches its weight.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def _targets(assignment: np.ndarray, facility_points: np.ndarray) -> List[int]:
    return [int(facility_points[a]) if a >= 0 else -1 for a in assignment]


def realize_members_reference(
    sites: Sequence[tuple],
    dropped: np.ndarray,
    assignment: np.ndarray,
    facility_points: np.ndarray,
) -> tuple:
    """``(assignment dict, sorted outlier array)`` by the member-dict rule."""
    provenance = []
    members_by_site: Dict[tuple, tuple] = {}
    for site_id, (centers, members, shipped) in enumerate(sites):
        provenance += [(site_id, "center", int(c)) for c in centers]
        provenance += [(site_id, "outlier", int(p)) for p in shipped]
        for center, info in members.items():
            members_by_site[(site_id, int(center))] = info

    realized: Dict[int, int] = {}
    outliers: List[int] = []
    targets = _targets(assignment, facility_points)
    for idx, (site_id, kind, origin) in enumerate(provenance):
        target = targets[idx]
        if kind == "outlier":
            if target < 0:
                outliers.append(origin)
            else:
                realized[origin] = target
            continue
        member_ids, member_dists = members_by_site[(site_id, origin)]
        member_ids = np.asarray(member_ids, dtype=int)
        member_dists = np.asarray(member_dists, dtype=float)
        n_drop = int(round(float(dropped[idx]))) if target >= 0 else member_ids.size
        n_drop = min(n_drop, member_ids.size)
        if n_drop > 0:
            drop_order = np.argsort(-member_dists, kind="stable")[:n_drop]
        else:
            drop_order = np.empty(0, dtype=int)
        drop_set = set(member_ids[drop_order].tolist())
        for pid in member_ids.tolist():
            if pid in drop_set:
                outliers.append(pid)
            else:
                realized[pid] = target
    return realized, np.asarray(sorted(set(outliers)), dtype=int)


def realize_whole_or_nothing_reference(
    sites: Sequence[tuple],
    dropped: np.ndarray,
    weights: np.ndarray,
    assignment: np.ndarray,
    facility_points: np.ndarray,
) -> tuple:
    """``(assignment dict, sorted outlier array)`` by center-g's rule."""
    realized: Dict[int, int] = {}
    outliers: List[int] = []
    targets = _targets(assignment, facility_points)
    idx = 0
    for _, members, shipped in sites:
        for group in members:
            target = targets[idx]
            fully_dropped = target < 0 or dropped[idx] >= weights[idx] - 1e-9
            for node in group:
                if fully_dropped:
                    outliers.append(int(node))
                else:
                    realized[int(node)] = target
            idx += 1
        for node in shipped:
            target = targets[idx]
            if target < 0:
                outliers.append(int(node))
            else:
                realized[int(node)] = target
            idx += 1
    return realized, np.asarray(sorted(set(outliers)), dtype=int)
