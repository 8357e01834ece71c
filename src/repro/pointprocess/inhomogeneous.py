"""Inhomogeneous multi-dimensional Poisson point processes.

An inhomogeneous MDPP ``P~(lambda~, R)`` has a positive rate function
``lambda~(t, x, y)`` over space and time (paper Section III-A).  Simulation
uses Lewis–Shedler thinning: simulate a homogeneous process at the dominating
rate ``lambda_max`` and retain each candidate event with probability
``lambda~(t, x, y) / lambda_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import PointProcessError
from ..geometry import Region, as_region
from ..rng import ensure_rng
from .events import EventBatch
from .homogeneous import HomogeneousMDPP
from .intensity import IntensityModel


@dataclass(frozen=True)
class InhomogeneousMDPP:
    """An inhomogeneous MDPP ``P~(intensity, region)``."""

    intensity: IntensityModel
    region: Region

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", as_region(self.region))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    def expected_count(self, duration: float, *, t_start: float = 0.0) -> float:
        """Expected number of events over ``[t_start, t_start + duration)``."""
        if duration <= 0:
            raise PointProcessError("duration must be positive")
        return self.intensity.integral(self.region, t_start, t_start + duration)

    def mean_rate(self, duration: float, *, t_start: float = 0.0) -> float:
        """Average rate per unit area and time over the window."""
        return self.expected_count(duration, t_start=t_start) / (
            self.region.area * duration
        )

    # ------------------------------------------------------------------
    # Simulation (Lewis-Shedler thinning)
    # ------------------------------------------------------------------
    def sample(
        self,
        duration: float,
        *,
        t_start: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> EventBatch:
        """Simulate the process over ``[t_start, t_start + duration)``."""
        if duration <= 0:
            raise PointProcessError("duration must be positive")
        rng = ensure_rng(rng)
        t_end = t_start + duration
        lam_max = float(self.intensity.max_rate(self.region, t_start, t_end))
        if lam_max <= 0:
            raise PointProcessError("dominating rate must be strictly positive")
        dominating = HomogeneousMDPP(lam_max, self.region)
        candidates = dominating.sample(duration, t_start=t_start, rng=rng)
        if candidates.is_empty:
            return candidates
        rates = self.intensity.rate(candidates.t, candidates.x, candidates.y)
        accept_probability = np.clip(rates / lam_max, 0.0, 1.0)
        keep = rng.random(len(candidates)) < accept_probability
        return candidates.select(keep).sorted_by_time()
