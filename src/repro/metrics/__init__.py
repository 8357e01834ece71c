"""Metrics: achieved rates, violations, cost accounting and report tables.

The benchmark harness reports its results through these helpers so every
experiment prints comparable, self-describing tables.
"""

from .rates import achieved_rate
from .violations import ViolationTracker
from .cost import CostModel, CostReport
from .reporting import ResultTable, format_table

__all__ = [
    "achieved_rate",
    "ViolationTracker",
    "CostModel",
    "CostReport",
    "ResultTable",
    "format_table",
]
