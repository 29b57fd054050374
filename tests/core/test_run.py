"""Tests for the protocol run harness."""

import inspect
import os

from repro.core.run import protocol_run
from repro.obs.trace import NULL_TRACER
from repro.runtime import SerialBackend


def test_the_six_run_options():
    params = inspect.signature(protocol_run).parameters.values()
    options = [p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY]
    assert options == ["backend", "memory_budget", "prefetch", "trace", "retry", "telemetry"]


def test_untraced_run_defaults():
    with protocol_run("algorithm1", "median") as run:
        assert run.tracer is NULL_TRACER
        assert run.trace is None
        assert run.memory_budget is None and run.workdir is None
        assert run.local_kwargs({"iters": 3}) == {"iters": 3}
        with run.backend() as backend:
            assert isinstance(backend, SerialBackend)


def test_budget_scratch_and_solver_defaults():
    with protocol_run("algorithm1", "median", memory_budget="1KB", prefetch=False) as run:
        assert run.memory_budget == 1024
        assert os.path.isdir(run.workdir)
        workdir = run.workdir
        assert run.local_kwargs(None) == {"memory_budget": 1024, "prefetch": False}
        # Caller-supplied solver kwargs win over the run defaults.
        assert run.local_kwargs({"prefetch": True})["prefetch"] is True
    assert not os.path.exists(workdir)
