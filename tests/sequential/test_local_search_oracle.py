"""Oracle: batched swap scoring equals one-swap-at-a-time local search.

``local_search_partial`` scores every (position, candidate) swap of an
iteration as tiled blocks.  These tests run it against
``reference_solver.reference_local_search``, which scores each swap with its
own greedy trim, and require the same centers, cost bits, assignment,
dropped weights, iteration count and evaluation count.  Every case also runs
under ``memory_budget=64``, where each tile holds one candidate.  Both sides
run in this process, so the comparison holds for whatever BLAS ``ddot`` the
machine has.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sequential import local_search_partial
from tests.sequential.reference_solver import reference_local_search

BUDGETS = [None, 64]
#: Grid seeds from here on draw the sites' family: unit weights, a whole
#: ``t`` in 1..n-1 and up to 70 demands, whose swap tiles ``trim_row_costs``
#: scores from each row's top-``t`` mask.
UNIT_SEEDS = 60


def _assert_matches_reference(costs, k, t, weights=None, budget=None, **kwargs):
    ref = reference_local_search(costs, k, t, weights, **kwargs)
    sol = local_search_partial(
        costs, k, t, weights, memory_budget=budget, **kwargs
    )
    np.testing.assert_array_equal(sol.centers, ref["centers"])
    assert float(sol.cost).hex() == float(ref["cost"]).hex()
    np.testing.assert_array_equal(sol.assignment, ref["assignment"])
    assert [x.hex() for x in sol.dropped_weight] == [x.hex() for x in ref["dropped_weight"]]
    assert sol.metadata["iterations"] == ref["iterations"]
    assert sol.metadata["evaluations"] == ref["evaluations"]


def _grid_case(seed):
    """One seeded instance; the seed cycles through costs, weights and ``t``
    (below :data:`UNIT_SEEDS`) or through costs alone (the sites' family)."""
    rng = np.random.default_rng(seed)
    unit = seed >= UNIT_SEEDS
    n = int(rng.integers(2, 71) if unit else rng.integers(1, 40))
    n_fac = int(rng.integers(1, 40))
    costs = [
        rng.integers(0, 5, size=(n, n_fac)).astype(float),  # many ties
        rng.random((n, n_fac)) * 10,
        rng.random((n, n_fac)) ** 2,
    ][seed % 3]
    weights = [
        None,
        rng.integers(0, 4, size=n).astype(float),  # zero weights
        rng.random(n) * 3,  # fractional weights
        np.where(rng.random(n) < 0.3, 0.0, rng.random(n) * 5),
    ][seed % 4]
    total = float(n if weights is None else weights.sum())
    t = [0.0, 0.5, 3.0, total, total + 2.0, rng.random() * total][seed % 6]
    if unit:
        weights, t = None, float(rng.integers(1, n))
    kwargs = {
        "objective": ("median", "means")[seed % 2],
        "sample_size": None if seed % 3 else int(rng.integers(1, n_fac + 1)),
        "init_centers": None
        if seed % 5
        else rng.choice(n_fac, size=min(n_fac, 3), replace=False),
        "rng": seed,
    }
    return costs, int(rng.integers(1, 6)), t, weights, kwargs


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("seed", range(UNIT_SEEDS + 30))
def test_seeded_grid_matches_reference(seed, budget):
    costs, k, t, weights, kwargs = _grid_case(seed)
    _assert_matches_reference(costs, k, t, weights, budget, **kwargs)


@pytest.mark.parametrize("budget", BUDGETS)
def test_site_sized_instance_matches_reference(small_cost_matrix, budget):
    for t in (0, 15, 40.5):
        _assert_matches_reference(small_cost_matrix, 6, t, budget=budget, rng=3)


@st.composite
def solver_instances(draw, unit_weights=False):
    """Small weighted instances, or with ``unit_weights`` the sites' family:
    unit weights, a whole ``t`` in 1..n-1 and up to 70 demands."""
    n = draw(st.integers(min_value=2, max_value=70) if unit_weights else st.integers(1, 14))
    n_fac = draw(st.integers(min_value=1, max_value=10))
    integer_costs = draw(st.booleans())
    values = (
        st.integers(min_value=0, max_value=4).map(float)
        if integer_costs
        else st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
    )
    costs = draw(arrays(dtype=float, shape=(n, n_fac), elements=values))
    if unit_weights:
        weights, t = None, float(draw(st.integers(min_value=1, max_value=n - 1)))
    else:
        weights = draw(
            st.none()
            | arrays(
                dtype=float,
                shape=(n,),
                elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])
                | st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            )
        )
        total = float(n if weights is None else weights.sum())
        t = draw(
            st.sampled_from([0.0, total, total + 1.0])
            | st.floats(min_value=0.0, max_value=total + 1.0, allow_nan=False)
        )
    k = draw(st.integers(min_value=1, max_value=4))
    init = draw(
        st.none()
        | st.lists(st.integers(0, n_fac - 1), min_size=1, max_size=k, unique=True)
    )
    kwargs = {
        "objective": draw(st.sampled_from(["median", "means"])),
        "sample_size": draw(st.none() | st.integers(min_value=1, max_value=n_fac)),
        "init_centers": init,
        "rng": draw(st.integers(min_value=0, max_value=2**16)),
    }
    return costs, k, t, weights, kwargs


@given(case=solver_instances() | solver_instances(unit_weights=True))
@settings(max_examples=200, deadline=None)
def test_hypothesis_instances_match_reference(case):
    costs, k, t, weights, kwargs = case
    for budget in BUDGETS:
        _assert_matches_reference(costs, k, t, weights, budget, **kwargs)


@st.composite
def instances_with_infinite_costs(draw):
    """Some ``inf`` costs, with ``init_centers`` given so seeding is skipped.

    A fully dropped ``inf`` demand makes a swap's cost NaN, and ``inf - inf``
    makes a gain NaN, so these cases drive NaN gains into the winner choice.
    """
    costs, k, t, weights, kwargs = draw(solver_instances())
    n, n_fac = costs.shape
    mask = draw(arrays(dtype=bool, shape=(n, n_fac), elements=st.booleans()))
    costs = np.where(mask, np.inf, costs)
    kwargs["init_centers"] = draw(
        st.lists(st.integers(0, n_fac - 1), min_size=1, max_size=k, unique=True)
    )
    if len(kwargs["init_centers"]) < min(k, n_fac):
        k = len(kwargs["init_centers"])  # a short warm start would re-seed
    return costs, k, t, weights, kwargs


@given(case=instances_with_infinite_costs())
@settings(max_examples=80, deadline=None)
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_infinite_costs_match_reference(case):
    costs, k, t, weights, kwargs = case
    for budget in BUDGETS:
        _assert_matches_reference(costs, k, t, weights, budget, **kwargs)
