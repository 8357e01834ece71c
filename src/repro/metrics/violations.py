"""Tracking of percent rate violations over time.

The Flatten operators report ``N_v`` per batch; the tracker accumulates those
series per (attribute, cell) pair so experiments can plot convergence of the
budget-tuning loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import CraqrError

PairKey = Tuple[str, Tuple[int, int]]


@dataclass
class ViolationTracker:
    """Accumulates per-batch violation percentages per (attribute, cell)."""

    series: Dict[PairKey, List[float]] = field(default_factory=dict)

    def record(self, violations: Dict[PairKey, float]) -> None:
        """Append one batch's violations."""
        for pair, value in violations.items():
            if value < 0:
                raise CraqrError("violation percentages cannot be negative")
            self.series.setdefault(pair, []).append(value)

    def latest(self, pair: PairKey) -> float:
        """Most recent violation for a pair (0 when never recorded)."""
        values = self.series.get(pair)
        return values[-1] if values else 0.0

    def mean(self, pair: PairKey) -> float:
        """Mean violation for a pair over its recorded history."""
        values = self.series.get(pair)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def overall_mean(self) -> float:
        """Mean violation over every recorded value."""
        values = [v for series in self.series.values() for v in series]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def converged(self, pair: PairKey, threshold: float, *, window: int = 5) -> bool:
        """Whether the last ``window`` batches all stayed at or below the threshold."""
        values = self.series.get(pair, [])
        if len(values) < window:
            return False
        return all(v <= threshold for v in values[-window:])
