"""Tests for the execution backends."""

import os

import pytest

from repro.cluster import ClusterBackend
from repro.runtime import (
    ExecutionBackend,
    SerialBackend,
    backend_scope,
    effective_cpu_count,
    resolve_backend,
)
from tests.helpers import run_site_round

ALL_BACKENDS = ["serial", pytest.param("cluster:2", marks=pytest.mark.cluster)]


class TestEffectiveCpuCount:
    def test_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        assert effective_cpu_count() == 4

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert effective_cpu_count() == 8

    def test_clamps_to_at_least_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(), raising=False)
        assert effective_cpu_count() == 1


def _square(x):
    return x * x


def _explode(x):
    raise ValueError(f"site task {x} failed on purpose")


class TestResolveBackend:
    def test_none_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    @pytest.mark.parametrize("name, cls", [("serial", SerialBackend)])
    def test_names(self, name, cls):
        backend = resolve_backend(name)
        assert isinstance(backend, cls)
        assert backend.name == name
        backend.close()

    def test_names_are_case_insensitive(self):
        assert isinstance(resolve_backend("SERIAL"), SerialBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_bad_worker_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_backend("cluster:0")


class TestMapOrdered:
    """One round of site tasks: values in site order, first failure raised."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_results_in_submission_order(self, name):
        with backend_scope(name) as backend:
            assert run_site_round(backend, _square, range(10)) == [x * x for x in range(10)]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_empty_batch(self, name):
        with backend_scope(name) as backend:
            assert run_site_round(backend, _square, []) == []

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_single_item(self, name):
        with backend_scope(name) as backend:
            assert run_site_round(backend, _square, [7]) == [49]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_original_exception_surfaces(self, name):
        with backend_scope(name) as backend:
            with pytest.raises(ValueError, match="site task 3 failed on purpose"):
                run_site_round(backend, _explode, [3, 4])

    @pytest.mark.cluster
    def test_pool_is_reused_across_batches(self):
        backend = ClusterBackend(n_hosts=2)
        try:
            run_site_round(backend, _square, [1, 2, 3])
            runners = [host.process for host in backend._hosts]
            run_site_round(backend, _square, [4, 5, 6])
            assert [host.process for host in backend._hosts] == runners
            assert all(runner.poll() is None for runner in runners)
        finally:
            backend.close()
        assert backend._hosts is None
        assert all(runner.poll() is not None for runner in runners)

    @pytest.mark.cluster
    def test_close_is_idempotent(self):
        backend = ClusterBackend(n_hosts=2)
        run_site_round(backend, _square, [1, 2])
        backend.close()
        backend.close()
        assert backend._hosts is None


class TestBackendScope:
    """Closing belongs to whoever built the backend (checked on a spy close)."""

    @pytest.fixture()
    def closed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(SerialBackend, "close", lambda self: calls.append(self))
        return calls

    def test_owned_backend_is_closed(self, closed):
        with backend_scope("serial") as backend:
            run_site_round(backend, _square, [1, 2, 3])
            assert closed == []
        assert closed == [backend]

    def test_caller_owned_backend_stays_open(self, closed):
        backend = SerialBackend()
        with backend_scope(backend) as scoped:
            assert scoped is backend
            run_site_round(scoped, _square, [1, 2, 3])
        assert closed == []  # still warm for the next round

    def test_context_manager_protocol(self, closed):
        with SerialBackend() as backend:
            assert isinstance(backend, ExecutionBackend)
            run_site_round(backend, _square, [1, 2])
        assert closed == [backend]
