"""Property tests for the row-wise greedy trim kernel against its loop form,
for the selection that finds each row's covering prefix, and for the
costs-only trim that scores unit-weight rows from their top-``t`` mask."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sequential.assignment import (
    _descending_prefix,
    trim_outliers,
    trim_row_costs,
    trim_rows,
)
from tests.sequential.reference_solver import reference_trim


def _weights_and_budget(draw, n):
    weights = draw(
        arrays(
            dtype=float,
            shape=(n,),
            elements=st.sampled_from([0.0, 1.0, 2.5])
            | st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        )
    )
    total = float(weights.sum())
    budget = draw(
        st.sampled_from([0.0, total, total + 1.0])
        | st.floats(min_value=0.0, max_value=total + 2.0, allow_nan=False)
    )
    return weights, budget


@st.composite
def blocks_and_weights(draw):
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=0, max_value=30))
    integer_costs = draw(st.booleans())
    values = (
        st.integers(min_value=0, max_value=3).map(float)  # ties
        if integer_costs
        else st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
    )
    units = draw(arrays(dtype=float, shape=(n_rows, n), elements=values))
    return (units, *_weights_and_budget(draw, n))


class TestTrimRowsMatchesLoop:
    @given(data=blocks_and_weights())
    @settings(max_examples=200, deadline=None)
    def test_row_costs_equal_reference_bits(self, data):
        units, weights, budget = data
        _, _, costs = trim_rows(units, weights, budget)
        for row, cost in zip(units, costs):
            assert float(cost).hex() == reference_trim(row, weights, budget)[1].hex()

    @given(data=blocks_and_weights())
    @settings(max_examples=200, deadline=None)
    def test_trim_outliers_dropped_equals_reference(self, data):
        units, weights, budget = data
        for objective in ("median", "means"):
            for row in units:
                dropped, cost = trim_outliers(row, weights, budget, objective)
                ref_dropped, ref_cost = reference_trim(row, weights, budget)
                assert [x.hex() for x in dropped] == [x.hex() for x in ref_dropped]
                assert cost.hex() == ref_cost.hex()

    @given(data=blocks_and_weights())
    @settings(max_examples=100, deadline=None)
    def test_prefix_covers_the_budget(self, data):
        units, weights, budget = data
        prefix, drops, _ = trim_rows(units, weights, budget)
        assert prefix.shape == drops.shape
        assert np.all(drops >= 0)
        assert np.all(drops <= weights[prefix])
        # Every row drops at most the budget, and all of it when it can.
        assert np.all(drops.sum(axis=1) <= budget + 1e-9 * max(1.0, budget))
        if budget <= weights.sum():
            np.testing.assert_allclose(drops.sum(axis=1), budget, rtol=1e-9, atol=1e-9)


SPECIALS = [0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]


def _stable_prefix(units, width):
    return np.argsort(-units, axis=1, kind="stable")[:, :width]


@st.composite
def blocks_with_specials(draw):
    """Blocks of 1-8 rows with ties, +inf, -inf, -0.0 and NaN; rows of up to
    32 demands sort whole, longer ones take the selection."""
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=64))
    values = st.sampled_from(SPECIALS) | st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    return draw(arrays(dtype=float, shape=(n_rows, n), elements=values))


class TestCoveringPrefix:
    """How ``trim_rows`` finds each row's covering prefix: by selection, and
    from a first width of ``t`` over the least positive weight."""

    @given(units=blocks_with_specials())
    @settings(max_examples=300, deadline=None)
    def test_every_width_matches_the_stable_sort(self, units):
        for width in range(1, units.shape[1] + 1):
            np.testing.assert_array_equal(
                _descending_prefix(units, width), _stable_prefix(units, width)
            )

    def test_solver_shaped_integer_blocks_with_many_ties(self):
        """256x100 blocks of small integer costs, as a site's swap tiles come
        in, at the widths a unit-weight budget of 2..20 selects."""
        rng = np.random.default_rng(7)
        weights = np.ones(100)
        for width in range(2, 21):
            units = rng.integers(0, 6, size=(256, 100)).astype(float)
            prefix, _, _ = trim_rows(units, weights, float(width))
            assert prefix.shape == (256, width)
            np.testing.assert_array_equal(prefix, _stable_prefix(units, width))

    def test_first_width_at_extreme_weight_ratios(self):
        """``t`` over the least positive weight underflows to 0 or overflows to
        inf: the trim still starts from one demand, or from all ``n``."""
        units = np.array([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]])
        for weights, budget in (
            (np.array([1e10, 2e10, 3e10]), 5e-324),
            (np.array([5e-324, 1.0, 2.0]), 1.0),
        ):
            _, _, costs = trim_rows(units, weights, budget)
            for row, cost in zip(units, costs):
                assert float(cost).hex() == reference_trim(row, weights, budget)[1].hex()


@st.composite
def unit_weight_blocks(draw):
    """Blocks of 1-8 rows by 1-130 demands (both sides of the 32-demand
    rule), of tied integers with -0.0, of floats, or of floats mixed with
    +-0.0, +-inf and NaN.  Most draws take unit weights and a whole budget
    0..n+1; the rest take ``blocks_and_weights``' weights and budgets."""
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=130))
    floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
    values = draw(
        st.sampled_from(
            [
                st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]),
                floats,
                st.sampled_from(SPECIALS) | floats,
            ]
        )
    )
    units = draw(arrays(dtype=float, shape=(n_rows, n), elements=values))
    if draw(st.integers(min_value=0, max_value=3)):
        return units, np.ones(n), float(draw(st.integers(min_value=0, max_value=n + 1)))
    return (units, *_weights_and_budget(draw, n))


def _loop_cost_hex(row, weights, budget):
    cost = reference_trim(row, weights, budget)[1]
    # ``np.dot`` returns a one-demand row's lone product as it is, so a -0.0
    # keeps its sign; the stacked ``np.matmul`` adds it to +0.0.
    return (cost + 0.0 if row.size == 1 else cost).hex()


def _assert_costs_match(units, weights, budget):
    costs = [x.hex() for x in trim_row_costs(units, weights, budget)]
    assert costs == [x.hex() for x in trim_rows(units, weights, budget)[2]]
    assert costs == [_loop_cost_hex(row, weights, budget) for row in units]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestCostsOnlyTrim:
    """``trim_row_costs`` is ``trim_rows(...)[2]`` and the loop's cost, bit
    for bit (``float.hex`` reads every NaN as ``nan``, so NaNs compare by
    position), on its unit path and on the fallback."""

    @given(data=unit_weight_blocks())
    @settings(max_examples=400, deadline=None)
    def test_costs_equal_trim_rows_and_reference_bits(self, data):
        _assert_costs_match(*data)

    def test_solver_shaped_integer_blocks(self):
        """256x100 blocks of small integer costs, a site's swap tile, at the
        unit-weight budgets 1..20 that take the unit path."""
        rng = np.random.default_rng(11)
        weights = np.ones(100)
        for budget in range(1, 21):
            units = rng.integers(0, 6, size=(256, 100)).astype(float)
            _assert_costs_match(units, weights, float(budget))
