"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_k_t,
    check_points_array,
    check_positive_int,
    check_probability_vector,
)


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "x")

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_allow_zero(self):
        assert check_positive_int(0, "x", allow_zero=True) == 0

    def test_rejects_negative_even_with_allow_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(-1, "x", allow_zero=True)


class TestCheckKT:
    def test_valid(self):
        assert check_k_t(10, 3, 2) == (10, 3, 2)

    def test_t_zero_allowed(self):
        assert check_k_t(10, 3, 0) == (10, 3, 0)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            check_k_t(5, 6, 0)

    def test_t_too_large(self):
        with pytest.raises(ValueError):
            check_k_t(5, 1, 6)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            check_k_t(5, 0, 1)


class TestCheckProbabilityVector:
    def test_normalises(self):
        p = check_probability_vector(np.asarray([2.0, 2.0]))
        assert np.allclose(p, [0.5, 0.5])

    def test_already_normalised_untouched(self):
        p = check_probability_vector(np.asarray([0.25, 0.75]))
        assert np.allclose(p, [0.25, 0.75])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.asarray([0.5, -0.5]))

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.asarray([0.0, 0.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.asarray([]))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.ones((2, 2)))


class TestCheckPointsArray:
    def test_1d_promoted_to_column(self):
        arr = check_points_array(np.asarray([1.0, 2.0, 3.0]))
        assert arr.shape == (3, 1)

    def test_2d_passthrough(self):
        arr = check_points_array(np.ones((4, 3)))
        assert arr.shape == (4, 3)

    def test_nan_rejected(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            check_points_array(bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_points_array(np.empty((0, 2)))
