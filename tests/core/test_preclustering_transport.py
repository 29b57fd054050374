"""Transport behaviour of SitePreclustering: solution strip + dense spill.

A precluster crossing a transport (process pool, cluster socket, state
fault) must not drag its re-derivable weight along: the cached
``ClusterSolution``s collapse to rebuild recipes and a dense cost matrix
above the spill threshold crosses as a memmap handle.  ``solution_for``
transparently re-solves after a strip — bit-identically, which is what every
test here ultimately asserts.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core import preclustering
from repro.core.preclustering import (
    SitePreclustering,
    _StrippedSolution,
    precluster_site,
)
from repro.metrics import blocked
from repro.metrics.cost_matrix import build_cost_matrix
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime.backends import ProcessPoolBackend
from tests.helpers import run_site_round


@pytest.fixture(scope="module")
def site_costs():
    rng = np.random.default_rng(7)
    points = np.concatenate(
        [rng.normal(0, 1, (30, 2)), rng.normal(10, 1, (30, 2)), rng.normal((0, 12), 1, (10, 2))]
    )
    metric = EuclideanMetric(points)
    idx = np.arange(len(points))
    return build_cost_matrix(metric, idx, idx, "median")


@pytest.fixture()
def precluster(site_costs):
    return precluster_site(site_costs, k_local=4, t=12, objective="median", rng=42)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _worker_spill_dir(_):
    # A forked worker inherits its parent's directory (the parent removes
    # that one); forget it so the worker creates, and must remove, its own.
    blocked._TRANSPORT_SPILL_DIR = None
    return blocked.transport_spill_dir()


def _assert_same_solution(a, b):
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.dropped_weight, b.dropped_weight)
    assert a.cost == b.cost
    assert a.outlier_weight == b.outlier_weight
    assert a.objective == b.objective


class TestSolutionStrip:
    def test_pickle_strips_every_cached_solution(self, precluster):
        restored = _roundtrip(precluster)
        assert set(restored.solutions) == set(precluster.solutions)
        assert all(
            isinstance(s, _StrippedSolution) for s in restored.solutions.values()
        )

    def test_strip_shrinks_the_payload(self, precluster):
        stripped = len(pickle.dumps(precluster, protocol=pickle.HIGHEST_PROTOCOL))
        # The same object with the strip bypassed: pickle the raw dict.
        whole = len(
            pickle.dumps(
                {k: v for k, v in precluster.__dict__.items() if k != "_spill_shard"},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        assert stripped < whole

    def test_solution_for_rebuilds_bit_identical(self, precluster):
        restored = _roundtrip(precluster)
        for q in map(int, precluster.grid):
            original = precluster.solution_for(q, 4, "median", rng=0)
            rebuilt = restored.solution_for(q, 4, "median", rng=0)
            _assert_same_solution(original, rebuilt)
        # Rebuilds are cached: the second read returns the same object.
        q0 = int(precluster.grid[0])
        assert restored.solution_for(q0, 4, "median") is restored.solution_for(
            q0, 4, "median"
        )

    def test_zero_cost_solution_rebuilds(self, site_costs):
        n = site_costs.shape[0]
        pre = precluster_site(site_costs, k_local=3, t=n, objective="median", rng=5)
        zero_qs = [q for q, s in pre.solutions.items() if s.centers.size == 0]
        assert zero_qs, "a grid point at q >= n must hit the zero-cost branch"
        restored = _roundtrip(pre)
        for q in zero_qs:
            _assert_same_solution(
                pre.solution_for(q, 3, "median"), restored.solution_for(q, 3, "median")
            )

    def test_profile_and_costs_survive_roundtrip(self, precluster):
        restored = _roundtrip(precluster)
        np.testing.assert_array_equal(restored.grid, precluster.grid)
        np.testing.assert_array_equal(restored.costs, precluster.costs)
        np.testing.assert_array_equal(
            restored.profile.hull_qs, precluster.profile.hull_qs
        )
        np.testing.assert_array_equal(
            restored.profile.hull_costs, precluster.profile.hull_costs
        )

    def test_double_roundtrip_is_stable(self, precluster):
        twice = _roundtrip(_roundtrip(precluster))
        q = int(precluster.grid[-1])
        _assert_same_solution(
            precluster.solution_for(q, 4, "median"), twice.solution_for(q, 4, "median")
        )


class TestDenseSpill:
    def test_below_threshold_ships_inline(self, precluster):
        # Default threshold (256 KiB) far exceeds this 70x70 matrix.
        restored = _roundtrip(precluster)
        assert not isinstance(restored.cost_matrix, np.memmap)
        np.testing.assert_array_equal(restored.cost_matrix, precluster.cost_matrix)

    def test_above_threshold_spills_to_memmap_handle(self, precluster, monkeypatch):
        monkeypatch.setattr(preclustering, "TRANSPORT_SPILL_THRESHOLD", 1024)
        payload = pickle.dumps(precluster, protocol=pickle.HIGHEST_PROTOCOL)
        # The n^2 floats stayed out of the pickle stream...
        assert len(payload) < precluster.cost_matrix.nbytes
        restored = pickle.loads(payload)
        # ...and the receiving side reads the same values through a memmap.
        assert isinstance(restored.cost_matrix, np.memmap)
        np.testing.assert_array_equal(
            np.asarray(restored.cost_matrix), precluster.cost_matrix
        )
        # The local object is untouched (still dense in RAM)...
        assert not isinstance(precluster.cost_matrix, np.memmap)
        # ...and repeated pickles reuse the one spill file.
        again = pickle.loads(pickle.dumps(precluster, protocol=pickle.HIGHEST_PROTOCOL))
        assert again.cost_matrix.filename == restored.cost_matrix.filename

    def test_spilled_precluster_rebuilds_bit_identical(self, precluster, monkeypatch):
        monkeypatch.setattr(preclustering, "TRANSPORT_SPILL_THRESHOLD", 1024)
        restored = _roundtrip(precluster)
        for q in map(int, precluster.grid):
            _assert_same_solution(
                precluster.solution_for(q, 4, "median"),
                restored.solution_for(q, 4, "median"),
            )

    def test_pool_worker_removes_its_spill_dir_on_exit(self):
        # Pool workers leave through os._exit, which skips atexit hooks.
        backend = ProcessPoolBackend(max_workers=1)
        try:
            (path,) = run_site_round(backend, _worker_spill_dir, [None])
            assert os.path.isdir(path)
        finally:
            backend.close()
        assert not os.path.exists(path)
