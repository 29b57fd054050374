"""Evaluation, comparison and reporting utilities.

The protocols return centers, budgets and communication ledgers; this package
turns them into the numbers the paper's tables talk about — realized
objective values on the full data, approximation ratios against the
centralized reference, communication totals and their scaling in ``s``, ``k``
and ``t`` — and formats them as plain-text tables for the
benchmark harness (indexed in ``DESIGN.md``).
"""

from repro.analysis.evaluation import (
    EvaluatedSolution,
    evaluate_centers,
    outlier_recovery,
)
from repro.analysis.comparison import (
    approximation_ratio,
    summarize_result,
    compare_results,
    scaling_exponent,
)
from repro.analysis.tables import format_table

__all__ = [
    "EvaluatedSolution",
    "evaluate_centers",
    "outlier_recovery",
    "approximation_ratio",
    "summarize_result",
    "compare_results",
    "scaling_exponent",
    "format_table",
]
