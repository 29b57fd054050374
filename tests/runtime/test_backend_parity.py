"""A caller-owned backend serves several protocol runs unchanged.

A run closes only the backend it built: one warm cluster pool passed to
successive runs keeps its runners, and every run is still bit-identical
to serial.  Per-protocol cluster parity lives in ``test_cluster_parity.py``.
"""

import numpy as np
import pytest

from repro import partial_kmedian
from repro.cluster import ClusterBackend

pytestmark = pytest.mark.cluster


def _assert_same_result(base, other):
    np.testing.assert_array_equal(base.centers, other.centers)
    assert base.cost == other.cost
    assert base.rounds == other.rounds
    assert base.ledger.total_words() == other.ledger.total_words()
    assert base.ledger.words_by_round() == other.ledger.words_by_round()
    assert base.ledger.words_by_kind() == other.ledger.words_by_kind()
    assert base.ledger.n_messages() == other.ledger.n_messages()
    np.testing.assert_array_equal(base.outliers, other.outliers)
    assert base.metadata["t_allocated"] == other.metadata["t_allocated"]


class TestDeterministicProtocolParity:
    def test_backend_instance_is_shared_across_runs(self, small_workload):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        with ClusterBackend(n_hosts=2) as pool:
            first = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend=pool)
            runners = [host.process for host in pool._hosts]
            second = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend=pool)
            assert [host.process for host in pool._hosts] == runners
        _assert_same_result(base, first)
        _assert_same_result(base, second)
