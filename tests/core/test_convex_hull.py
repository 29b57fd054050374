"""Tests for lower convex hulls and CostProfile."""

import numpy as np
import pytest

from repro.core import CostProfile, lower_convex_hull


class TestLowerConvexHull:
    def test_convex_input_kept_entirely(self):
        qs = np.asarray([0.0, 1.0, 2.0, 4.0])
        costs = np.asarray([10.0, 6.0, 3.0, 0.0])  # strictly convex decreasing
        hx, hy = lower_convex_hull(qs, costs)
        assert np.array_equal(hx, qs)
        assert np.array_equal(hy, costs)

    def test_concave_point_dropped(self):
        qs = np.asarray([0.0, 1.0, 2.0])
        costs = np.asarray([10.0, 9.5, 0.0])  # middle point lies above the chord
        hx, hy = lower_convex_hull(qs, costs)
        assert np.array_equal(hx, [0.0, 2.0])
        assert np.array_equal(hy, [10.0, 0.0])

    def test_hull_below_input(self):
        rng = np.random.default_rng(0)
        qs = np.arange(20, dtype=float)
        costs = np.sort(rng.random(20))[::-1] * 100
        hx, hy = lower_convex_hull(qs, costs)
        interp = np.interp(qs, hx, hy)
        assert np.all(interp <= costs + 1e-9)

    def test_hull_is_convex(self):
        rng = np.random.default_rng(1)
        qs = np.arange(30, dtype=float)
        costs = np.sort(rng.random(30))[::-1] * 50
        hx, hy = lower_convex_hull(qs, costs)
        slopes = np.diff(hy) / np.diff(hx)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_duplicate_q_keeps_min(self):
        hx, hy = lower_convex_hull([0.0, 0.0, 1.0], [5.0, 3.0, 0.0])
        assert hy[0] == 3.0

    def test_unsorted_input(self):
        hx, hy = lower_convex_hull([2.0, 0.0, 1.0], [0.0, 10.0, 4.0])
        assert np.array_equal(hx, [0.0, 1.0, 2.0])
        assert np.array_equal(hy, [10.0, 4.0, 0.0])

    def test_collinear_middle_point_not_a_vertex(self):
        # (1, 5) lies exactly on the chord from (0, 10) to (2, 0): the hull only
        # keeps the endpoints, and interpolation recovers the middle value.
        hx, hy = lower_convex_hull([0.0, 1.0, 2.0], [10.0, 5.0, 0.0])
        assert np.array_equal(hx, [0.0, 2.0])
        assert np.interp(1.0, hx, hy) == pytest.approx(5.0)

    def test_single_point(self):
        hx, hy = lower_convex_hull([3.0], [7.0])
        assert np.array_equal(hx, [3.0])
        assert np.array_equal(hy, [7.0])

    def test_mismatched_input_rejected(self):
        with pytest.raises(ValueError):
            lower_convex_hull([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            lower_convex_hull([], [])


class TestCostProfile:
    @pytest.fixture
    def profile(self):
        return CostProfile.from_evaluations(
            qs=[0, 1, 2, 4, 8], costs=[100.0, 60.0, 40.0, 20.0, 5.0], t_max=8
        )

    def test_evaluation_at_vertices(self, profile):
        assert profile(0) == pytest.approx(100.0)
        assert profile(8) == pytest.approx(5.0)

    def test_interpolation_between_vertices(self, profile):
        assert profile(3) == pytest.approx((40.0 + 20.0) / 2)

    def test_constant_beyond_last_vertex(self):
        prof = CostProfile.from_evaluations([0, 2], [10.0, 4.0], t_max=10)
        assert prof(7) == pytest.approx(4.0)

    def test_marginals_non_negative_non_increasing(self, profile):
        marginals = profile.marginals()
        assert marginals.shape == (8,)
        assert np.all(marginals >= 0)
        assert np.all(np.diff(marginals) <= 1e-9)

    def test_marginals_sum_telescopes(self, profile):
        marginals = profile.marginals()
        assert marginals.sum() == pytest.approx(profile(0) - profile(8))

    def test_vertex_queries(self, profile):
        assert profile.is_vertex(4)
        assert not profile.is_vertex(3)
        assert profile.snap_up_to_vertex(3) == 4
        assert profile.snap_down_to_vertex(3) == 2
        assert profile.bracketing_vertices(3) == (2, 4)

    def test_snap_beyond_range(self, profile):
        assert profile.snap_up_to_vertex(100) == 8  # falls back to the largest vertex
        assert profile.snap_down_to_vertex(-5) == 0

    def test_words(self, profile):
        assert profile.words == 2 * profile.n_vertices

    def test_t_max_zero(self):
        prof = CostProfile.from_evaluations([0], [3.0], t_max=0)
        assert prof.marginals().size == 0

    def test_non_monotone_hull_qs_rejected(self):
        with pytest.raises(ValueError):
            CostProfile(hull_qs=np.asarray([0.0, 0.0]), hull_costs=np.asarray([1.0, 0.0]), t_max=2)

    def test_call_vectorised(self, profile):
        out = profile(np.asarray([0, 4, 8]))
        assert np.allclose(out, [100.0, 20.0, 5.0])
