"""Tests for UncertainNode."""

import numpy as np
import pytest

from repro.metrics import EuclideanMetric
from repro.uncertain import UncertainNode


@pytest.fixture
def two_point_node():
    # Realises to ground point 0 with prob 0.25 and point 6 with prob 0.75.
    return UncertainNode(support=np.asarray([0, 6]), probabilities=np.asarray([0.25, 0.75]))


class TestConstruction:
    def test_normalisation(self):
        node = UncertainNode(support=np.asarray([0, 1]), probabilities=np.asarray([2.0, 2.0]))
        assert np.allclose(node.probabilities, [0.5, 0.5])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            UncertainNode(support=np.asarray([0, 1, 2]), probabilities=np.asarray([0.5, 0.5]))

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            UncertainNode(support=np.asarray([3, 3]), probabilities=np.asarray([0.5, 0.5]))

    def test_deterministic_constructor(self):
        node = UncertainNode.deterministic(4)
        assert node.support_size == 1
        assert node.probabilities[0] == 1.0


class TestExpectedDistances:
    def test_expected_distance_formula(self, two_point_node, tiny_metric):
        expected = 0.25 * tiny_metric.distance(0, 3) + 0.75 * tiny_metric.distance(6, 3)
        assert two_point_node.expected_distance(tiny_metric, 3) == pytest.approx(expected)

    def test_expected_distances_vectorised(self, two_point_node, tiny_metric):
        pts = np.arange(len(tiny_metric))
        vec = two_point_node.expected_distances(tiny_metric, pts)
        for p in pts:
            assert vec[p] == pytest.approx(two_point_node.expected_distance(tiny_metric, int(p)))

    def test_expected_sq_distances(self, two_point_node, tiny_metric):
        vec = two_point_node.expected_sq_distances(tiny_metric, [3])
        expected = 0.25 * tiny_metric.distance(0, 3) ** 2 + 0.75 * tiny_metric.distance(6, 3) ** 2
        assert vec[0] == pytest.approx(expected)

    def test_expected_truncated_distances(self, two_point_node, tiny_metric):
        tau = 5.0
        vec = two_point_node.expected_truncated_distances(tiny_metric, [3], tau)
        expected = 0.25 * max(tiny_metric.distance(0, 3) - tau, 0.0) + 0.75 * max(
            tiny_metric.distance(6, 3) - tau, 0.0
        )
        assert vec[0] == pytest.approx(expected)

    def test_truncation_negative_tau_rejected(self, two_point_node, tiny_metric):
        with pytest.raises(ValueError):
            two_point_node.expected_truncated_distances(tiny_metric, [0], -1.0)

    def test_truncated_le_plain(self, two_point_node, tiny_metric):
        pts = np.arange(len(tiny_metric))
        plain = two_point_node.expected_distances(tiny_metric, pts)
        trunc = two_point_node.expected_truncated_distances(tiny_metric, pts, 1.0)
        assert np.all(trunc <= plain + 1e-12)

    def test_relaxed_triangle_inequality(self, rng):
        # Lemma 5.12: L_tau(u1,u2) + L_tau(u2,u3) >= L_{2 tau}(u1,u3).  On a
        # deterministic node rho_tau is exactly L_tau, so each row below is
        # the truncated distance the center-g protocol computes.
        metric = EuclideanMetric(rng.normal(scale=5.0, size=(20, 2)))
        tau = 1.0
        points = np.arange(len(metric))
        nodes = [UncertainNode.deterministic(u) for u in points]
        l_tau = np.stack([n.expected_truncated_distances(metric, points, tau) for n in nodes])
        l_2tau = np.stack(
            [n.expected_truncated_distances(metric, points, 2 * tau) for n in nodes]
        )
        assert np.array_equal(l_tau, np.maximum(metric.full_matrix() - tau, 0.0))
        for mid in points:
            lhs = l_tau[:, [mid]] + l_tau[[mid], :]
            assert np.all(lhs >= l_2tau - 1e-9)

    def test_deterministic_node_matches_metric(self, tiny_metric):
        node = UncertainNode.deterministic(2)
        assert node.expected_distance(tiny_metric, 5) == pytest.approx(tiny_metric.distance(2, 5))


class TestSamplingAndEncoding:
    def test_sample_within_support(self, two_point_node, rng):
        draws = two_point_node.sample(rng, size=200)
        assert set(np.unique(draws)) <= {0, 6}

    def test_sample_frequencies(self, two_point_node):
        draws = two_point_node.sample(np.random.default_rng(0), size=4000)
        freq = np.mean(draws == 6)
        assert freq == pytest.approx(0.75, abs=0.05)

    def test_scalar_sample(self, two_point_node, rng):
        assert two_point_node.sample(rng) in (0, 6)

    def test_encoding_words(self, two_point_node):
        assert two_point_node.encoding_words(words_per_point=2) == pytest.approx(6.0)
        assert two_point_node.encoding_words(words_per_point=1) == pytest.approx(4.0)
