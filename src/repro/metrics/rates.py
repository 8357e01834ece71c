"""Rate metrics: how close a fabricated stream is to its requested rate."""

from __future__ import annotations

from typing import Sequence

from ..errors import CraqrError
from ..streams import SensorTuple


def achieved_rate(tuples: Sequence[SensorTuple], area: float, duration: float) -> float:
    """Observed rate (tuples per unit area per unit time)."""
    if area <= 0 or duration <= 0:
        raise CraqrError("area and duration must be positive")
    return len(tuples) / (area * duration)
