"""Backend parity: every protocol must be bit-identical across backends.

The acceptance bar for the runtime subsystem: for a fixed seed, serial
and process backends (and the pickle transport) return the same
centers, the same cost and the same ledger word counts — parallelism and
payload materialisation are pure execution details.
"""

import numpy as np
import pytest

from repro import (
    partial_kcenter,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping
from repro.runtime import ProcessPoolBackend

PARALLEL_BACKENDS = ["process"]


def _assert_same_result(base, other):
    np.testing.assert_array_equal(base.centers, other.centers)
    assert base.cost == other.cost
    assert base.rounds == other.rounds
    assert base.ledger.total_words() == other.ledger.total_words()
    assert base.ledger.words_by_round() == other.ledger.words_by_round()
    assert base.ledger.words_by_kind() == other.ledger.words_by_kind()
    assert base.ledger.n_messages() == other.ledger.n_messages()
    if base.outliers is None:
        assert other.outliers is None
    else:
        np.testing.assert_array_equal(base.outliers, other.outliers)
    assert base.metadata["t_allocated"] == other.metadata["t_allocated"]


class TestDeterministicProtocolParity:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_kmedian(self, small_workload, backend):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend="serial")
        other = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend=backend)
        _assert_same_result(base, other)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_kcenter(self, small_workload, backend):
        base = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42, backend="serial")
        other = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42, backend=backend)
        _assert_same_result(base, other)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_no_shipping_variant(self, small_instance, backend):
        base = distributed_partial_median_no_shipping(small_instance, rng=42, backend="serial")
        other = distributed_partial_median_no_shipping(small_instance, rng=42, backend=backend)
        _assert_same_result(base, other)

    def test_backend_instance_is_shared_across_runs(self, small_workload):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        with ProcessPoolBackend(max_workers=2) as pool:
            first = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend=pool)
            second = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend=pool)
        _assert_same_result(base, first)
        _assert_same_result(base, second)


class TestUncertainProtocolParity:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_uncertain_kmedian(self, small_uncertain_workload, backend):
        base = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend="serial"
        )
        other = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend=backend
        )
        _assert_same_result(base, other)
        assert base.metadata["node_assignment"] == other.metadata["node_assignment"]

    def test_center_g_process_parity(self, small_uncertain_workload):
        base = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend="serial"
        )
        with ProcessPoolBackend(max_workers=2) as pool:
            other = uncertain_partial_kcenter_g(
                small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend=pool
            )
        _assert_same_result(base, other)
        assert base.metadata["tau_hat"] == other.metadata["tau_hat"]
