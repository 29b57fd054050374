"""Oracle: the facility-major radius search equals the plan-based one.

``kcenter_with_outliers`` reads a facility-major copy of its matrix (or,
under a budget too small for the copy, facility strips of the source) and
runs a probe's greedy only when the search reaches it.  These tests run it
against ``tests/oracle/kcenter.py::kcenter_with_outliers_reference``, the
plan-based search it replaced, and require the same centers, assignment,
cost bits, dropped weights, ``radius_guess``, ``probe_rounds`` and
``n_radius_candidates``: under budgets that stream strips one facility wide
(64 B) or a few wide (4 KB), budgets that just miss and just hold the copy,
no budget, and from a memmap.  A kernel property checks the gains
themselves against ``count_within``, bit for bit, for any subset of demand
rows, and a probe round's gains against them.  Matrices go past 128
demands, where numpy's pairwise summation starts splitting, and down to
one row or one column; entries tie often and include ``-0.0``.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.blocked import MemmapCostShard, count_within
from repro.sequential import kcenter_with_outliers
from repro.sequential.kcenter_outliers import _STRIP_TILES, _ByFacility
from tests.oracle.kcenter import kcenter_with_outliers_reference


def _bits(values) -> bytes:
    """The exact bytes of a float array (so ``-0.0`` differs from ``0.0``)."""
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _matrix(rng, n, m, kind):
    if kind == "ties":
        values = rng.integers(0, 4, size=(n, m)).astype(float)
        return np.where((values == 0) & (rng.random((n, m)) < 0.5), -0.0, values)
    scale = {"unit": 1.0, "tiny": 1e-3, "huge": 1e5}[kind]
    return rng.random((n, m)) * scale


def _weights(rng, n, kind):
    if kind == "none":
        return None
    if kind == "zeros":
        values = rng.integers(0, 3, size=n).astype(float)
        return np.where((values == 0) & (rng.random(n) < 0.5), -0.0, values)
    return rng.random(n) * 3 + (rng.random(n) < 0.2) * 0.5  # fractional


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n, m = draw(st.sampled_from([
        (1, 1), (1, 7), (9, 1),
        (int(rng.integers(2, 40)), int(rng.integers(2, 40))),
        (int(rng.integers(129, 260)), int(rng.integers(1, 24))),
    ]))
    cost = _matrix(rng, n, m, draw(st.sampled_from(["ties", "unit", "tiny", "huge"])))
    weights = _weights(rng, n, draw(st.sampled_from(["none", "zeros", "fractional"])))
    total = float(n if weights is None else weights.sum())
    t = draw(st.sampled_from([0.0, 0.5, 0.25 * total, total]))
    kwargs = {
        "probe_batch": draw(st.sampled_from([1, 2, 3, 5])),
        "max_candidates": draw(st.sampled_from([256, 7])),
    }
    return cost, draw(st.integers(min_value=1, max_value=5)), t, weights, kwargs


def _budgets(cost):
    copy = _STRIP_TILES * 8 * cost.size
    return [None, 64, 4096, copy - 1, copy]


def _assert_same_solution(sol, ref):
    np.testing.assert_array_equal(sol.centers, ref.centers)
    np.testing.assert_array_equal(sol.assignment, ref.assignment)
    assert float(sol.cost).hex() == float(ref.cost).hex()
    assert _bits(sol.dropped_weight) == _bits(ref.dropped_weight)
    for key in ("radius_guess", "probe_rounds", "n_radius_candidates"):
        assert repr(sol.metadata[key]) == repr(ref.metadata[key]), key


@given(case=instances())
@settings(max_examples=120, deadline=None)
def test_search_matches_plan_based_reference(case):
    cost, k, t, weights, kwargs = case
    for budget in _budgets(cost):
        ref = kcenter_with_outliers_reference(cost, k, t, weights, memory_budget=budget, **kwargs)
        sol = kcenter_with_outliers(cost, k, t, weights, memory_budget=budget, **kwargs)
        _assert_same_solution(sol, ref)


@given(case=instances())
@settings(max_examples=15, deadline=None)
def test_memmap_search_matches_reference(case):
    cost, k, t, weights, kwargs = case
    with tempfile.TemporaryDirectory() as workdir:
        shard = MemmapCostShard.create(cost.shape, workdir=workdir)
        shard.write_rows(slice(0, cost.shape[0]), cost)
        source = shard.finalize()
        for budget in (None, 4096):
            ref = kcenter_with_outliers_reference(cost, k, t, weights, memory_budget=budget, **kwargs)
            sol = kcenter_with_outliers(source, k, t, weights, memory_budget=budget, **kwargs)
            _assert_same_solution(sol, ref)
        del source
        shard.unlink()


@given(case=instances(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_gains_equal_count_within_for_any_rows(case, data):
    cost, _, _, weights, _ = case
    n = cost.shape[0]
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Unit weights sum exactly in any order, so they stand in for fractional ones.
    w = rng.random(n) * 3 if weights is None else weights
    rows = data.draw(st.sampled_from([
        None,
        np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)),
        rng.permutation(n)[: int(rng.integers(1, n + 1))],
    ]))
    radii = np.unique(np.concatenate([rng.choice(cost.ravel(), size=3), [0.0, -0.0]]))
    picked = w if rows is None else w[rows]
    for budget in _budgets(cost):
        gains = _ByFacility(cost, budget).gains(radii, picked, rows=rows)
        assert gains.shape == (radii.size, cost.shape[1])
        for pos, radius in enumerate(radii):
            expected = count_within(
                cost, float(radius), rows=rows, weights=picked, memory_budget=budget
            )
            assert _bits(gains[pos]) == _bits(expected)
        if rows is None:
            seeds = list(_ByFacility(cost, budget).round_gains(radii, picked))
            assert _bits(seeds) == _bits(gains)


@pytest.mark.parametrize("budget", [None, 4096])
def test_copy_is_kept_only_when_it_fits(budget):
    cost = np.random.default_rng(1).random((30, 20))
    kept = _ByFacility(cost, budget)._copy is not None
    assert kept == (budget is None)
    assert _ByFacility(cost, _STRIP_TILES * 8 * cost.size)._copy is not None


def test_copy_passes_span_several_strips():
    """Past one cache-sized strip the copy is read strip by strip, and the
    gains and the search still match ``count_within`` and the reference."""
    rng = np.random.default_rng(2)
    cost = rng.random((300, 600))
    weights = rng.random(300) * 3
    facilities = _ByFacility(cost)
    assert facilities._copy is not None
    assert len(list(facilities._strips(None))) > 1
    radii = np.quantile(cost, [0.1, 0.5])
    gains = facilities.gains(radii, weights)
    for pos, radius in enumerate(radii):
        assert _bits(gains[pos]) == _bits(count_within(cost, float(radius), weights=weights))
    ref = kcenter_with_outliers_reference(cost, 4, 30.0, weights)
    _assert_same_solution(kcenter_with_outliers(cost, 4, 30.0, weights), ref)
