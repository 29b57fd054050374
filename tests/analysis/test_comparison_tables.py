"""Tests for comparison utilities and table formatting."""

import numpy as np
import pytest

from repro.analysis import (
    approximation_ratio,
    compare_results,
    format_table,
    summarize_result,
)
from repro.analysis.comparison import scaling_exponent
from repro.baselines import centralized_reference, send_all_protocol
from repro.core import distributed_partial_median


class TestRatios:
    def test_approximation_ratio(self):
        assert approximation_ratio(6.0, 3.0) == 2.0

    def test_zero_reference(self):
        assert approximation_ratio(0.0, 0.0) == 1.0
        assert approximation_ratio(1.0, 0.0) == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            approximation_ratio(-1.0, 2.0)


class TestScalingExponent:
    def test_quadratic_series(self):
        xs = np.asarray([100, 200, 400, 800], dtype=float)
        ys = 3.0 * xs**2
        assert scaling_exponent(xs, ys) == pytest.approx(2.0, abs=1e-6)

    def test_subquadratic_series(self):
        xs = np.asarray([100, 200, 400, 800], dtype=float)
        ys = 5.0 * xs**1.33
        assert scaling_exponent(xs, ys) == pytest.approx(1.33, abs=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            scaling_exponent([1.0], [1.0])
        with pytest.raises(ValueError):
            scaling_exponent([1.0, 0.0], [1.0, 2.0])


class TestSummaries:
    def test_summarize_result_keys(self, small_instance, small_metric, small_workload):
        result = distributed_partial_median(small_instance, rng=0)
        reference = centralized_reference(small_metric, 3, 15, objective="median", rng=1)
        row = summarize_result(
            small_metric,
            result,
            reference=reference,
            true_outliers=np.flatnonzero(small_workload.outlier_mask),
            label="alg1",
        )
        assert row["label"] == "alg1"
        assert row["approx_ratio"] > 0
        assert 0 <= row["outlier_recall"] <= 1
        assert row["total_words"] > 0

    def test_compare_results(self, small_instance, small_metric):
        runs = {
            "alg1": distributed_partial_median(small_instance, rng=0),
            "send_all": send_all_protocol(small_instance, rng=0),
        }
        rows = compare_results(small_metric, runs)
        assert [r["label"] for r in rows] == ["alg1", "send_all"]


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1.23456}, {"name": "bb", "value": 7.0}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([]) == ""
        assert format_table([], title="t") == "t"

    def test_missing_keys_render_empty(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "1" in text and "2" in text
