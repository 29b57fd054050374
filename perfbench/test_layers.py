"""Tests of the layer-wrapping helper.

Run from the repository root::

    python3 -m pytest perfbench/test_layers.py
"""

import time

import numpy as np
import pytest

import repro.sequential.assignment as assignment
import repro.sequential.local_search as local_search
from bench import COMPUTE_TARGETS
from layers import LayerTimer, Target
from repro import partial_kmedian
from repro.data import gaussian_mixture_with_outliers
from repro.metrics import EuclideanMetric, SubsetMetric, blocked


@pytest.fixture(scope="module")
def points():
    return gaussian_mixture_with_outliers(120, 8, 3, dim=2, rng=7).points


def _run(points):
    return partial_kmedian(points, 3, 8, n_sites=3, seed=1, backend="serial")


def test_patches_every_importing_module_and_restores():
    original = assignment.trim_outliers
    assert local_search.trim_outliers is original
    timer = LayerTimer([Target("trim", "repro.sequential.assignment:trim_outliers")])
    with timer:
        assert assignment.trim_outliers is not original
        assert local_search.trim_outliers is assignment.trim_outliers
    assert assignment.trim_outliers is original
    assert local_search.trim_outliers is original


def test_wrapped_serial_run_is_bit_identical(points):
    plain = _run(points)
    with LayerTimer(COMPUTE_TARGETS) as timer:
        wrapped = _run(points)
    assert timer.calls["sequential.trim_outliers"] > 0
    assert np.array_equal(plain.centers, wrapped.centers)
    assert plain.cost == wrapped.cost
    assert plain.ledger.total_words() == wrapped.ledger.total_words()
    assert plain.ledger.words_by_kind() == wrapped.ledger.words_by_kind()


def test_calls_repeat_exactly(points):
    counts = []
    for _ in range(2):
        with LayerTimer(COMPUTE_TARGETS) as timer:
            _run(points)
        counts.append(dict(timer.calls))
    assert counts[0] == counts[1]
    assert counts[0]["core.precluster_site"] == 3


def test_layer_rows_and_other_add_up_to_wall_time(points):
    with LayerTimer(COMPUTE_TARGETS) as timer:
        start = time.perf_counter()
        _run(points)
        wall = time.perf_counter() - start
    other = wall - timer.main_covered_s
    assert other >= 0
    assert all(s >= 0 for s in timer.self_s.values())
    assert sum(timer.main_self_s.values()) + other == pytest.approx(wall, rel=1e-6)


def test_self_time_excludes_nested_calls():
    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        calls["inner"]()

    timer = LayerTimer([Target("inner", "x:inner"), Target("outer", "x:outer")])
    calls = {"inner": timer._wrap_call("inner", inner)}
    timer._wrap_call("outer", outer)()
    assert timer.calls == {"inner": 1, "outer": 1}
    assert 0.01 <= timer.self_s["outer"] < 0.02
    assert timer.self_s["inner"] >= 0.02
    assert timer.main_covered_s == pytest.approx(sum(timer.self_s.values()))


def test_context_target_times_enter_and_exit_as_one_call():
    timer = LayerTimer([Target("scratch", "repro.metrics.blocked:shard_scratch",
                               context=True)])
    with timer:
        with blocked.shard_scratch(1024) as workdir:
            assert workdir is not None
    assert timer.calls["scratch"] == 1
    assert timer.self_s["scratch"] > 0


def test_method_target_patches_every_override_and_restores():
    original = vars(EuclideanMetric)["pairwise"]
    metric = SubsetMetric(EuclideanMetric(np.arange(8.0).reshape(4, 2)), [0, 2, 3])
    timer = LayerTimer([Target("pairwise", "repro.metrics.base:MetricSpace.pairwise")])
    with timer:
        metric.pairwise([0, 1], [2])
    assert timer.calls["pairwise"] == 2  # the subset view, then its parent
    assert vars(EuclideanMetric)["pairwise"] is original
