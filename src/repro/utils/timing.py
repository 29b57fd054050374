"""Lightweight wall-clock timing used by the analysis and benchmark layers.

The paper reports local (site) time and coordinator time separately; the
coordinator-model simulator wraps per-party computation in :class:`Timer`
blocks so both can be reported without profiling overhead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class Timer:
    """Accumulating wall-clock timer keyed by label.

    Example
    -------
    >>> timer = Timer()
    >>> with timer.measure("site"):
    ...     _ = sum(range(1000))
    >>> timer.total("site") >= 0.0
    True
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def measure(self, label: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[label] = self.totals.get(label, 0.0) + elapsed
            self.counts[label] = self.counts.get(label, 0) + 1

    def total(self, label: str) -> float:
        """Total seconds accumulated under ``label`` (0.0 if never used)."""
        return self.totals.get(label, 0.0)

    def count(self, label: str) -> int:
        """Number of measured blocks under ``label``."""
        return self.counts.get(label, 0)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all accumulated totals."""
        return dict(self.totals)

    def merge(self, other: "Timer") -> None:
        """Fold another timer's accumulations into this one."""
        for label, value in other.totals.items():
            self.totals[label] = self.totals.get(label, 0.0) + value
        for label, value in other.counts.items():
            self.counts[label] = self.counts.get(label, 0) + value


@contextmanager
def timed() -> Iterator[dict]:
    """Context manager yielding a dict whose ``"seconds"`` entry is filled on exit."""
    result = {"seconds": 0.0}
    start = time.perf_counter()
    try:
        yield result
    finally:
        result["seconds"] = time.perf_counter() - start


__all__ = ["Timer", "timed"]
