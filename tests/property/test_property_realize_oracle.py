"""Property tests: the one output step matches the realizations it replaced.

:func:`repro.core.combine.realize_output`, fed groups ordered by
:func:`repro.core.combine.member_groups`, must return the same assignment
dict and the same outlier array as the reference loops in
:mod:`tests.oracle.realize`: the member-dict rule (Algorithms 1-3 and the
one-round baseline) for any dropped weight, and center-g's whole-or-nothing
rule for the dropped weights its solver produces (none or all of a demand).
Member costs are drawn from four values, so ties are common.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combine import member_groups, realize_output
from repro.sequential.solution import ClusterSolution
from tests.oracle.realize import (
    realize_members_reference,
    realize_whole_or_nothing_reference,
)


@st.composite
def center_drops(draw, weight, whole_or_nothing):
    """Weight dropped from a center demand of ``weight`` units."""
    kinds = ["none", "all"] if whole_or_nothing else ["none", "whole", "fraction", "all"]
    kind = draw(st.sampled_from(kinds))
    if kind == "whole":
        return float(draw(st.integers(min_value=0, max_value=weight)))
    if kind == "fraction":
        return draw(st.floats(min_value=0.0, max_value=float(weight), allow_nan=False))
    return float(weight) if kind == "all" else 0.0


@st.composite
def realization_cases(draw, whole_or_nothing=False):
    """Sites with member groups (sizes 0-20) and shipped points, their shards,
    and a coordinator solution over their demands."""
    n_facilities = draw(st.integers(min_value=1, max_value=4))
    facility_points = 7 * np.arange(n_facilities) + 3
    layouts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        sizes = draw(st.lists(st.integers(min_value=0, max_value=20), max_size=4))
        n_shipped = draw(st.integers(min_value=0, max_value=5))
        n = sum(sizes) + n_shipped
        order = np.asarray(draw(st.permutations(range(n))), dtype=int)
        costs = np.asarray(
            draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)),
            dtype=float,
        )
        layouts.append((sizes, order, costs))
    total = sum(order.size for _, order, _ in layouts)
    global_ids = np.asarray(draw(st.permutations(range(total))), dtype=int)
    shards = np.split(global_ids, np.cumsum([order.size for _, order, _ in layouts])[:-1])

    targets, dropped, weights = [], [], []
    for sizes, order, _ in layouts:
        for size in sizes:
            targets.append(draw(st.integers(min_value=-1, max_value=n_facilities - 1)))
            dropped.append(draw(center_drops(size, whole_or_nothing)))
            weights.append(float(size))
        for _ in range(order.size - sum(sizes)):
            targets.append(draw(st.integers(min_value=-1, max_value=n_facilities - 1)))
            dropped.append(draw(st.sampled_from([0.0, 1.0] if whole_or_nothing else [0.0, 0.5, 1.0])))
            weights.append(1.0)
    solution = ClusterSolution(
        centers=np.arange(n_facilities),
        assignment=np.asarray(targets, dtype=int),
        outlier_weight=float(sum(dropped)),
        cost=0.0,
        objective="center" if whole_or_nothing else "median",
        dropped_weight=np.asarray(dropped, dtype=float),
    )
    return layouts, shards, solution, facility_points, np.asarray(weights)


def _site(sizes, order, costs, shard, cost):
    """One site's local assignment, its output pair and the references' view of it."""
    assignment = np.full(order.size, -1)
    bounds = np.cumsum([0] + list(sizes))
    for j in range(len(sizes)):
        assignment[order[bounds[j]:bounds[j + 1]]] = j
    shipped = np.sort(order[bounds[-1]:])
    groups = member_groups(assignment, range(len(sizes)), cost)
    members = [np.flatnonzero(assignment == j) for j in range(len(sizes))]
    return (groups, shipped), members, shard[shipped]


@given(case=realization_cases())
@settings(max_examples=200, deadline=None)
def test_matches_member_dict_realization(case):
    layouts, shards, solution, facility_points, _ = case
    outputs, reference_sites = [], []
    for (sizes, order, costs), shard in zip(layouts, shards):
        output, members, shipped = _site(sizes, order, costs, shard, lambda m, c: costs[m])
        outputs.append(output)
        # Distinct negative keys stand for the centers' global ids.
        keys = [-(j + 1) for j in range(len(sizes))]
        by_center = {key: (shard[m], costs[m]) for key, m in zip(keys, members)}
        reference_sites.append((keys, by_center, shipped))

    assignment, outliers = realize_output(shards, outputs, solution, facility_points)
    expected, expected_outliers = realize_members_reference(
        reference_sites, solution.dropped_weight, solution.assignment, facility_points
    )
    assert assignment == expected
    assert np.array_equal(outliers, expected_outliers)
    assert outliers.dtype == expected_outliers.dtype


@given(case=realization_cases(whole_or_nothing=True))
@settings(max_examples=100, deadline=None)
def test_matches_whole_or_nothing_realization(case):
    layouts, shards, solution, facility_points, weights = case
    outputs, reference_sites = [], []
    for (sizes, order, costs), shard in zip(layouts, shards):
        output, members, shipped = _site(sizes, order, costs, shard, None)
        outputs.append(output)
        reference_sites.append((None, [shard[m] for m in members], shipped))

    assignment, outliers = realize_output(shards, outputs, solution, facility_points)
    expected, expected_outliers = realize_whole_or_nothing_reference(
        reference_sites, solution.dropped_weight, weights, solution.assignment, facility_points
    )
    assert assignment == expected
    assert np.array_equal(outliers, expected_outliers)
