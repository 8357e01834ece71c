"""Uniform tuple sampling: the "ignore the skew" baseline.

Given a batch of raw crowdsensed tuples, keep a uniform random subset of the
desired size.  The count comes out right, but because every tuple is equally
likely to survive, the spatial distribution of the survivors is exactly as
skewed as the raw arrivals — dense downtown, sparse suburbs.  The Flatten
operator's location-aware retention (Eq. 3) is what removes that skew; the
skew-mitigation benchmark (E8) quantifies the difference.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import CraqrError
from ..rng import ensure_rng
from ..streams import SensorTuple


class UniformSamplingAcquirer:
    """Keeps a uniformly random subset of a raw batch."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = ensure_rng(rng)

    def sample(self, items: List[SensorTuple], target_count: int) -> List[SensorTuple]:
        """Keep ``target_count`` tuples uniformly at random (all when fewer)."""
        if target_count < 0:
            raise CraqrError("target_count cannot be negative")
        if target_count >= len(items):
            return list(items)
        indices = self._rng.choice(len(items), size=target_count, replace=False)
        return [items[int(i)] for i in sorted(indices)]

    def sample_to_rate(
        self,
        items: List[SensorTuple],
        rate: float,
        area: float,
        duration: float,
    ) -> List[SensorTuple]:
        """Keep roughly ``rate * area * duration`` tuples uniformly at random."""
        if rate <= 0 or area <= 0 or duration <= 0:
            raise CraqrError("rate, area and duration must be positive")
        target = int(round(rate * area * duration))
        return self.sample(items, target)
