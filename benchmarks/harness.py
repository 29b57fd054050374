"""Helpers shared by the benchmark modules (table recording, common runs)."""

from __future__ import annotations

import json
import os
from typing import Optional, Sequence

import numpy as np

from repro.analysis import format_table

#: Directory machine-readable benchmark artifacts are written into (the
#: benchmarks directory itself, next to the modules that produce them).
BENCH_ARTIFACT_DIR = os.path.dirname(os.path.abspath(__file__))


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {type(value)}")


def write_bench_json(name: str, payload: dict) -> str:
    """Write a machine-readable benchmark artifact (e.g. ``BENCH_blocked_plan.json``).

    The artifact lands next to the benchmark modules so successive runs can
    be diffed as a perf trajectory.  numpy scalars/arrays are converted;
    returns the written path.
    """
    path = os.path.join(BENCH_ARTIFACT_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def write_trace_json(name: str, tracer) -> str:
    """Export a run's :class:`~repro.obs.trace.Tracer` as a Chrome/Perfetto
    ``trace_event`` artifact next to the benchmark modules.

    Load the file in ``chrome://tracing`` or https://ui.perfetto.dev to see
    coordinator and runner spans on one timeline; returns the written path.
    """
    from repro.obs.export import write_chrome_trace

    return write_chrome_trace(tracer, os.path.join(BENCH_ARTIFACT_DIR, name))


def record_rows(benchmark, experiment_id: str, rows, columns: Optional[Sequence[str]] = None, title: Optional[str] = None) -> str:
    """Print a result table and attach the rows to the benchmark record.

    The printed table (visible with ``pytest -s``) and the
    ``benchmark.extra_info`` payload carry the same information; both are the
    source for the experiment index in ``DESIGN.md``.
    """
    table = format_table(rows, columns, title=title or experiment_id)
    print("\n" + table)
    benchmark.extra_info["experiment"] = experiment_id
    benchmark.extra_info["rows"] = [
        {
            k: (float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else str(v))
            for k, v in row.items()
        }
        for row in rows
    ]
    return table


__all__ = ["BENCH_ARTIFACT_DIR", "record_rows", "write_bench_json", "write_trace_json"]
