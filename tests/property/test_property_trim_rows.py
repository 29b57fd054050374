"""Property tests for the row-wise greedy trim kernel against its loop form."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sequential.assignment import trim_outliers, trim_rows
from tests.sequential.reference_solver import reference_trim


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
    return units, weights, budget


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
