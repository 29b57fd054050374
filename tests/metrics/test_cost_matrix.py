"""Tests for cost-matrix construction and objective validation."""

import numpy as np
import pytest

from repro.metrics import build_cost_matrix
from repro.metrics.cost_matrix import validate_objective


class TestValidateObjective:
    @pytest.mark.parametrize("name", ["median", "means", "center"])
    def test_accepts_valid(self, name):
        assert validate_objective(name) == name

    def test_case_insensitive(self):
        assert validate_objective("MEDIAN") == "median"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_objective("kmeanz")


class TestBuildCostMatrix:
    def test_median_is_distance(self, tiny_metric):
        costs = build_cost_matrix(tiny_metric, [0, 1], [2, 3], "median")
        assert costs[0, 0] == pytest.approx(tiny_metric.distance(0, 2))

    def test_means_is_squared(self, tiny_metric):
        d = build_cost_matrix(tiny_metric, [0, 1], [2, 3], "median")
        sq = build_cost_matrix(tiny_metric, [0, 1], [2, 3], "means")
        assert np.allclose(sq, d * d)

    def test_center_is_distance(self, tiny_metric):
        d = build_cost_matrix(tiny_metric, [0, 5], [6], "center")
        assert d[1, 0] == pytest.approx(tiny_metric.distance(5, 6))

    def test_shape(self, tiny_metric):
        costs = build_cost_matrix(tiny_metric, range(7), [0, 3, 6], "median")
        assert costs.shape == (7, 3)
