"""Homogeneous multi-dimensional Poisson point processes.

A homogeneous MDPP ``P(lambda, R)`` (paper notation) has a constant rate
``lambda`` per unit area and time over its spatial extent ``R``.  Simulation
is the classical two-step construction: draw the number of events from a
Poisson distribution with mean ``lambda * area(R) * duration`` and place the
events uniformly in the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import PointProcessError
from ..geometry import Region, as_region
from ..rng import ensure_rng
from .events import EventBatch
from .intensity import ConstantIntensity


def _uniform_points_in_region(
    region: Region, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` points uniformly over a (possibly composite) region.

    Returns an ``(count, 2)`` array of ``(x, y)``.  Rectangles are chosen
    with probability proportional to their area, then points are uniform
    within the chosen rectangle.
    """
    rects = region.rectangles
    areas = np.array([r.area for r in rects], dtype=float)
    probabilities = areas / areas.sum()
    choices = rng.choice(len(rects), size=count, p=probabilities)
    xs = np.empty(count)
    ys = np.empty(count)
    for idx, rect in enumerate(rects):
        mask = choices == idx
        n_sel = int(mask.sum())
        if n_sel == 0:
            continue
        xs[mask] = rng.uniform(rect.x_min, rect.x_max, size=n_sel)
        ys[mask] = rng.uniform(rect.y_min, rect.y_max, size=n_sel)
    return np.column_stack([xs, ys])


@dataclass(frozen=True)
class HomogeneousMDPP:
    """A homogeneous MDPP ``P(rate, region)``.

    Attributes
    ----------
    rate:
        Events per unit area per unit time (``lambda``).
    region:
        Spatial extent (a :class:`~repro.geometry.Region` or a
        :class:`~repro.geometry.Rectangle`).
    """

    rate: float
    region: Region

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise PointProcessError("rate must be strictly positive")
        object.__setattr__(self, "region", as_region(self.region))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def intensity(self) -> ConstantIntensity:
        """The process as a constant :class:`IntensityModel`."""
        return ConstantIntensity(self.rate)

    def expected_count(self, duration: float) -> float:
        """Expected number of events over ``duration`` time units."""
        if duration <= 0:
            raise PointProcessError("duration must be positive")
        return self.rate * self.region.area * duration

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def sample(
        self,
        duration: float,
        *,
        t_start: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        count: Optional[int] = None,
    ) -> EventBatch:
        """Simulate the process over ``[t_start, t_start + duration)``.

        Parameters
        ----------
        count:
            When given, exactly that many events are placed (a *binomial*
            process conditioned on the count); otherwise the count is
            Poisson-distributed with the correct mean.
        """
        if duration <= 0:
            raise PointProcessError("duration must be positive")
        rng = ensure_rng(rng)
        if count is None:
            n = int(rng.poisson(self.expected_count(duration)))
        else:
            if count < 0:
                raise PointProcessError("count must be non-negative")
            n = int(count)
        if n == 0:
            return EventBatch.empty()
        xy = _uniform_points_in_region(self.region, n, rng)
        t = rng.uniform(t_start, t_start + duration, size=n)
        batch = EventBatch(t, xy[:, 0], xy[:, 1])
        return batch.sorted_by_time()
