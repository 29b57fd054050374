"""Tests for the protocol run harness."""

import inspect
import os
import threading

import numpy as np
import pytest

from repro.core.run import protocol_run
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime import SerialBackend


def test_the_three_run_options():
    params = inspect.signature(protocol_run).parameters.values()
    options = [p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY]
    assert options == ["backend", "memory_budget", "trace"]


def test_untraced_run_defaults():
    with protocol_run("algorithm1", "median") as run:
        assert run.tracer is NULL_TRACER
        assert run.trace is None
        assert run.memory_budget is None and run.workdir is None
        assert run.local_kwargs({"iters": 3}) == {"iters": 3}
        network = StarNetwork(DistributedInstance.from_partition(
            EuclideanMetric(np.zeros((2, 1))), [[0], [1]], 1, 0
        ))
        with run.backend(network) as backend:
            assert isinstance(backend, SerialBackend)


def test_budget_scratch_and_solver_defaults():
    with protocol_run("algorithm1", "median", memory_budget="1KB") as run:
        assert run.memory_budget == 1024
        assert os.path.isdir(run.workdir)
        workdir = run.workdir
        assert run.local_kwargs(None) == {"memory_budget": 1024}
        # Caller-supplied solver kwargs win over the run defaults.
        assert run.local_kwargs({"memory_budget": 7, "max_iter": 5}) == {
            "memory_budget": 7, "max_iter": 5,
        }
    assert not os.path.exists(workdir)


def test_trace_mapping():
    """``trace=`` maps off / on / a shared tracer; nothing else."""
    before = set(threading.enumerate())
    for off in (False, None):
        with protocol_run("algorithm1", "median", trace=off) as run:
            assert run.tracer is NULL_TRACER and run.trace is None
            # Off starts no threads.
            assert set(threading.enumerate()) <= before

    with protocol_run("algorithm1", "median", trace=True) as run:
        assert isinstance(run.tracer, Tracer) and run.trace is run.tracer
    shared = Tracer()
    with protocol_run("algorithm1", "median", trace=shared) as run:
        assert run.tracer is shared and run.trace is shared

    for bad in ("yes", 1, object()):
        with pytest.raises(TypeError, match="trace must be"):
            with protocol_run("algorithm1", "median", trace=bad):
                pass
